"""Stack-like tracebacks carried by continuations.

The pending applications form an immutable spine of frame nodes.  A node is
the tuple (label, args, app, parent, depth): the callee label and raw
argument values captured when the closure was entered, the application form
it was entered from, which gives the call site (None for an entry through
`apply` or `call/cc`), the node below it (None at the bottom) and its
height.  Every continuation records the spine that was current when it was
made, and delivering a value to it makes that spine current again, so
returning pops frames and a re-entered `call/cc` continuation or a resumed
choice point shows exactly the frames pending where it resumes.  Entering a
closure (`machine._enter`) puts one node on top of the spine of the
continuation the callee returns to, so a tail call replaces its caller's
frame and the trace stays bounded for loops.  A failed evaluation hands
the current spine to its error (`SchemeError.spine`, set by
`Machine.eval_top`), which renders it only when a traceback is printed.
"""

from .writer import write_value

ARG_TEXT_LIMIT = 60
DEFAULT_MAX_FRAMES = 40


def frame_call_text(frame):
    label, raw_args = frame[0], frame[1]
    parts = [label]
    parts.extend(truncate_text(write_value(a)) for a in raw_args)
    return "(" + " ".join(parts) + ")"


class TraceConfig:
    __slots__ = ("enabled",)

    def __init__(self, enabled=True):
        self.enabled = enabled


class TraceStack:
    """The current frame spine plus its configuration; owned by one machine."""

    __slots__ = ("spine", "config", "high_water")

    def __init__(self, enabled=True):
        self.spine = None
        self.config = TraceConfig(enabled=enabled)
        self.high_water = 0

    def snapshot(self):
        """The current spine; nodes are never mutated, so no copy is made."""
        return self.spine

    def restore(self, spine):
        self.spine = spine

    def clear(self):
        self.spine = None


def spine_frames(node, limit=None):
    """The frames of `node` and every node below it, oldest first; only the
    newest `limit` of them when a limit is given."""
    frames = []
    while node is not None and len(frames) != limit:
        label, args, app, node = node[:4]
        frames.append((label, args, None, None, None) if app is None else
                      (label, args, app.line, app.col, app.source))
    frames.reverse()
    return tuple(frames)


def truncate_text(text, limit=ARG_TEXT_LIMIT):
    if len(text) <= limit:
        return text
    return text[:limit - 3] + "..."


def render_traceback(frames, error, max_frames=DEFAULT_MAX_FRAMES):
    """Render pending frames (most recent call last) plus the error line.

    `frames` is a sequence of frames, oldest first, or None for the frames
    of the error itself.  Then only the newest `max_frames` nodes of the
    error's spine are walked, and the top node's depth says how many more
    there are.
    """
    lines = []
    if frames is None:
        spine = error.spine
        total = spine[4] if spine is not None else 0
        frames = spine_frames(spine, max_frames)
    else:
        frames = tuple(frames)
        total = len(frames)
        if total > max_frames:
            frames = frames[-max_frames:]
    if frames:
        lines.append("Traceback (most recent call last):")
        if total > len(frames):
            lines.append(f"  [{total - len(frames)} frames elided]")
        for frame in frames:
            call = frame_call_text(frame)
            line, col, source = frame[2], frame[3], frame[4]
            if line is not None:
                source = source if source is not None else "<input>"
                lines.append(f'  File "{source}", line {line}, '
                             f'col {col}, in {call}')
            else:
                lines.append(f"  In {call}")
    lines.append(error.error_line())
    return "\n".join(lines)
