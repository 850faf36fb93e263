import sys

# numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's libcrypto
# (3.4 MB resident). Blocked, hashlib and hmac use CPython's built-ins; nothing here
# hashes or opens TLS. Only the process entry point may edit its sys.modules.
sys.modules.setdefault("_hashlib", None)

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
