package obs

import (
	"io"
	"log/slog"
	"sync/atomic"
)

// logger is the process-wide structured logger. Library code must stay
// quiet by default (the optimizer and service run inside tests and other
// programs), so the default logger discards everything; cmd/guardd
// installs a real handler at startup via SetLogger.
var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// Logger returns the current structured logger. It is never nil.
func Logger() *slog.Logger { return logger.Load() }

// SetLogger installs l as the process-wide structured logger (nil restores
// the discarding default).
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	logger.Store(l)
}
