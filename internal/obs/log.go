package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// InitLogging installs a slog text handler writing to w as the process
// default logger. Every component logger derives from it, so one call in
// main configures the whole tree. level names: debug, info, warn, error.
// Library packages log through Logger without requiring initialization —
// they simply inherit slog's default handler until main configures one.
func InitLogging(w io.Writer, level string) error {
	l, err := ParseLevel(level)
	if err != nil {
		return err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: l})))
	return nil
}

// ParseLevel maps a level name to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
	}
}

// Logger returns the structured logger for one component ("taskrt", "core",
// "data", "cmd", ...). Records carry a component attribute so one stream
// stays filterable per subsystem.
func Logger(component string) *slog.Logger {
	return slog.Default().With("component", component)
}
