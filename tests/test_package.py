import os
import subprocess
import sys

import calderon


def test_every_export_resolves():
    missing = [name for name in calderon.__all__ if not hasattr(calderon, name)]
    assert missing == []


def test_import_leaves_transform_only_modules_unloaded():
    """scipy.spatial and scipy.interpolate serve only the Cauchy transform,
    which imports them when it runs; import calderon in a fresh interpreter
    loads neither."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(calderon.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, calderon; "
        "print(' '.join(m for m in ('scipy.spatial', 'scipy.interpolate') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
