"""Helpers shared by the test modules."""

import os

import chargecast


def child_env():
    """Environment whose PYTHONPATH leads with the directory holding the imported chargecast.

    A child ``python -m chargecast`` then runs the same package as this
    process, whether it comes from an install or from a relative
    ``PYTHONPATH=src`` that would not resolve from the child's working
    directory.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(chargecast.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + rest if rest else "")
    return env
