"""The stop of manager threads: a pipe whose read end they wait on."""

import os


class PipeStop:
    """Pass it as `run_manager`'s `stop`. `set` closes the pipe's write
    end, so every manager given it sees an end of file and stops."""

    def __init__(self):
        self.reader, self.writer = os.pipe()

    def fileno(self) -> int:
        return self.reader

    def set(self):
        if self.writer != -1:
            os.close(self.writer)
            self.writer = -1

    def join(self, *threads):
        """Stop the managers and join their threads. The read end is closed
        once they have all ended, so no manager waits on a closed one."""
        self.set()
        for thread in threads:
            thread.join(timeout=5.0)
        if self.reader != -1 and not any(t.is_alive() for t in threads):
            os.close(self.reader)
            self.reader = -1
