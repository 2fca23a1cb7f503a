package obs

import (
	"io"
	"log/slog"
)

// LevelError is the level at which a logger writes only failures.
const LevelError = slog.LevelError

// NewLogger returns a log/slog logger writing text records at or above
// level to w:
//
//	time=2026-01-02T15:04:05.000Z level=ERROR msg="ship failed" component=cluster err="..."
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
