"""Allow ``python -m bandrec`` as an alias for the ``bandrec`` script."""

from .cli import main

raise SystemExit(main())
