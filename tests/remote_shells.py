"""One adapter per remote-PDP shell, so a test body runs against both.

``SyncShell`` wraps :class:`~repro.client.RemotePDP` as is;
``AsyncShell`` wraps :class:`~repro.client.AsyncRemotePDP` on a private
event loop and runs each awaited method to completion.  A contract
test class takes its shell from the ``shell`` class attribute, so the
same test body checks the retry and negotiation rules of both clients.
"""

import asyncio

from repro.client import AsyncRemotePDP, RemotePDP


class SyncShell:
    def __init__(self, *args, **kwargs):
        self.pdp = RemotePDP(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.pdp, name)

    def close(self):
        self.pdp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class AsyncShell(SyncShell):
    def __init__(self, *args, **kwargs):
        self._loop = asyncio.new_event_loop()
        self.pdp = AsyncRemotePDP(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self.pdp, name)
        if not callable(attr):
            return attr

        def run(*args, **kwargs):
            return self._loop.run_until_complete(attr(*args, **kwargs))

        return run

    def close(self):
        try:
            self._loop.run_until_complete(self.pdp.close())
        finally:
            self._loop.close()
