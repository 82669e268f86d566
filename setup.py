"""Setuptools shim so ``pip install -e .`` works without the wheel package.

The offline environment lacks ``wheel``, which PEP 517 editable installs
need; the legacy ``setup.py develop`` path used via
``pip install -e . --no-use-pep517 --no-build-isolation`` does not.

The simulator itself is stdlib-only; ``pip install -e .[dev]`` adds the
static-analysis toolchain (mypy — the in-tree linter ``repro.lint`` needs
nothing beyond the stdlib) and pytest for the tier-1 suite.

The compiled kernel (``repro._ckernel._impl``) is strictly OPTIONAL: the
extension is attempted, and any build failure — no compiler, exotic
platform — degrades to the authoritative pure-Python implementations with
a warning instead of breaking the install.  Build it explicitly with::

    python setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """``build_ext`` that degrades to pure Python instead of failing.

    ``repro.kernel`` (the chooser) already handles the extension being
    absent at import time, so a failed build must never fail the install.
    """

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:  # noqa: BLE001 - any build failure is non-fatal
            self._warn(exc)

    def build_extension(self, ext):
        try:
            build_ext.build_extension(self, ext)
        except Exception as exc:  # noqa: BLE001 - any build failure is non-fatal
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        sys.stderr.write(
            "WARNING: building the optional repro._ckernel._impl extension "
            "failed (%s: %s); falling back to the pure-Python kernel.\n"
            % (type(exc).__name__, exc)
        )


setup(
    name="repro-serverless-bft",
    version="0.9.0",
    description=(
        "Discrete-event reproduction of a serverless BFT/CFT consensus "
        "study: deterministic simulator, sweep harness, content-addressed "
        "result store, compiled kernel fast path, and static-analysis "
        "tooling."
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    ext_modules=[
        Extension(
            "repro._ckernel._impl",
            sources=["src/repro/_ckernel/_impl.c"],
            optional=True,
        ),
    ],
    cmdclass={"build_ext": optional_build_ext},
    # Runtime is deliberately stdlib-only (see ROADMAP.md); extras cover
    # the development toolchain.  Version pins are deliberately loose so the
    # extra resolves against whatever the offline environment already has.
    extras_require={
        "dev": [
            "pytest",
            "mypy",
        ],
    },
)
