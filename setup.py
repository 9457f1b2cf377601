import os

from setuptools import Extension, setup

# The compiled recurrence is optional: the package falls back to the
# pure-Python implementation when the extension is absent (see
# infodrift.kernels). INFODRIFT_SKIP_EXT=1 skips it on hosts with no C compiler.
# -ffp-contract=off keeps the C arithmetic bitwise-identical to the fallback.
ext_modules = []
if os.environ.get("INFODRIFT_SKIP_EXT") != "1":
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            [
                Extension(
                    "infodrift.kernels._ckernels",
                    ["src/infodrift/kernels/_ckernels.pyx"],
                    extra_compile_args=["-O2", "-ffp-contract=off"],
                )
            ],
            compiler_directives={"language_level": "3"},
        )
    except ImportError:
        ext_modules = []

setup(ext_modules=ext_modules)
