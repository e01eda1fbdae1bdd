"""Compile the native module with cffi (API mode).

Run as a script in a child interpreter, so the caller never imports
cffi's build half or setuptools::

    python _build.py MODULE_NAME SOURCE_FILE CDEF OUT_DIR

Prints the path of the built extension as its only line. Any failure
(no cffi, no compiler, ``CC=false``) exits non-zero.
"""

import pathlib
import sys


def main(argv):
    name, source, cdef, out_dir = argv
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(cdef)
    ffi.set_source(
        name,
        pathlib.Path(source).read_text(),
        extra_compile_args=["-O2", "-ffp-contract=off"],
    )
    print(ffi.compile(tmpdir=out_dir, verbose=False))


if __name__ == "__main__":
    main(sys.argv[1:])
