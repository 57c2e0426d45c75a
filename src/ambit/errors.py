"""Error types shared by the reader, expander, machine, and CLI."""


class SchemeError(Exception):
    """Base class for every error surfaced to Scheme code or the CLI.

    `label` is the prefix of the rendered error line (e.g. "UnboundVariable"
    or the name of the primitive that failed).  When an evaluation fails,
    `Machine.eval_top` keeps the trace spine that was current in `spine`
    (see `trace`); nothing is copied then.
    """

    def __init__(self, label, message, line=None, col=None):
        super().__init__(f"{label}: {message}")
        self.label = label
        self.message = message
        self.line = line
        self.col = col
        self.spine = None
        self._frames = None

    @property
    def frames(self):
        """Frames pending when the error escaped, oldest first, built from
        `spine` on first access."""
        if self._frames is None:
            # imported here: trace imports the writer, which imports values,
            # which imports this module
            from .trace import spine_frames

            self._frames = spine_frames(self.spine)
        return self._frames

    def error_line(self):
        return f"{self.label}: {self.message}"


class LexError(SchemeError):
    def __init__(self, message, line, col, unexpected_eof=False):
        super().__init__("LexError", message, line, col)
        # True when more input could complete the token (REPL keeps reading)
        self.unexpected_eof = unexpected_eof


class ParseError(SchemeError):
    def __init__(self, message, line=None, col=None, unexpected_eof=False):
        super().__init__("ParseError", message, line, col)
        self.unexpected_eof = unexpected_eof


class FormError(SchemeError):
    """A datum that, once its macro uses are expanded, is not a valid core
    form."""

    def __init__(self, message, line=None, col=None):
        super().__init__("SyntaxError", message, line, col)


class MacroError(SchemeError):
    """Bad define-syntax definition, or a failed/runaway expansion."""

    def __init__(self, message, label="MacroError"):
        super().__init__(label, message)


class EvalError(SchemeError):
    """Runtime failure; `label` names the failure kind or the primitive."""
