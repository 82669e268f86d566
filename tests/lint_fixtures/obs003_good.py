"""OBS003 good fixture: every sanctioned guard shape."""


class Executor:
    def __init__(self, obs=None):
        self._obs = obs

    def on_execute(self, seq, now):
        if self._obs is not None:
            self._obs.begin_span("execute", seq, now, "executor")

    def on_done(self, seq, now):
        if self._obs is None:
            return
        self._obs.end_span("execute", seq, now)

    def on_verify(self, seq, now, fast_path):
        if self._obs is not None and not fast_path:
            self._obs.begin_span("verify", seq, now, "verifier")

    def on_commit(self, obs, seq, now):
        assert obs is not None
        obs.end_span("commit", seq, now)

    def _trace(self, category, now, **details):
        if self._obs is not None:
            self._obs.record(now, category, "executor", **details)

    def span_or_default(self, seq, now):
        return self._obs.begin_span("x", seq, now, "e") if self._obs is not None else None
