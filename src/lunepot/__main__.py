import sys
import warnings

from .cli import main

# a warning prints like the CLI's error lines, without the frame that raised it
warnings.formatwarning = lambda message, category, *_: f"warning: {category.__name__}: {message}\n"

sys.exit(main())
