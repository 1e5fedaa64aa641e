package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Level orders event severities. Debug events are high-volume (per episode
// / per probe interval); Info events mark run lifecycle milestones.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	}
	return "unknown"
}

// Well-known event kinds emitted across the stack. Fields are free-form
// per kind; the README documents the schema each producer uses.
const (
	EventRunStart   = "run_start"   // sim or search begins
	EventRunStop    = "run_stop"    // sim or search ends, with summary fields
	EventSweepPoint = "sweep_point" // one injection-rate point of a sweep
	EventEpisode    = "episode"     // one DRL exploration cycle
	EventInterval   = "interval"    // periodic sim probe sample
	EventCheckpoint = "checkpoint"  // model/state persisted to disk
)

// Event is one structured log record. Fields are flattened into the JSON
// object alongside the envelope keys (ts, level, event).
type Event struct {
	Time   time.Time
	Level  Level
	Kind   string
	Fields map[string]any
}

// MarshalJSON flattens the envelope and fields into a single object.
// Envelope keys win on collision. A non-finite float64 field is written as
// null rather than failing the whole event.
func (e Event) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(e.Fields)+3)
	for k, v := range e.Fields {
		if f, ok := v.(float64); ok {
			v = jsonFloat(f)
		}
		m[k] = v
	}
	m["ts"] = e.Time.UTC().Format(time.RFC3339Nano)
	m["level"] = e.Level.String()
	m["event"] = e.Kind
	return json.Marshal(m)
}

// Logger writes events as JSON lines to an io.Writer. A nil *Logger is the
// nop logger: every method returns immediately, so instrumented code can
// log unconditionally. Writes are serialized by an internal mutex, making
// one Logger safe to share across learner goroutines.
//
// High-volume Debug events are buffered (32 KiB) to keep per-episode and
// per-interval logging off the syscall path; Info events flush the
// buffer, so lifecycle milestones like run_stop always reach the file
// immediately. Call Close (or at least Flush) when the run stops so
// trailing Debug events are never lost — all three CLIs do.
type Logger struct {
	mu     sync.Mutex
	buf    *bufio.Writer
	under  io.Writer
	min    Level
	closed bool
	now    func() time.Time // overridable for tests
}

// NewLogger builds a logger writing events at or above min to w. A nil w
// returns the nop (nil) logger.
func NewLogger(w io.Writer, min Level) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{buf: bufio.NewWriterSize(w, 32<<10), under: w, min: min, now: time.Now}
}

// Enabled reports whether events at level lv would be written; use it to
// skip expensive field construction.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.min
}

// Log writes one event. Fields may be nil. Errors from the underlying
// writer are dropped: telemetry must never fail the run it observes.
func (l *Logger) Log(lv Level, kind string, fields map[string]any) {
	if !l.Enabled(lv) {
		return
	}
	e := Event{Time: l.now(), Level: lv, Kind: kind, Fields: fields}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.buf.Write(append(data, '\n'))
	if lv >= LevelInfo {
		l.buf.Flush()
	}
}

// Flush forces buffered events to the underlying writer. Nil-safe and
// idempotent.
func (l *Logger) Flush() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.buf.Flush()
	}
}

// Close flushes buffered events and, when the underlying writer is an
// io.Closer (e.g. the CLI's *os.File), closes it. Further Log calls are
// dropped. Nil-safe and idempotent.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.buf.Flush()
	if c, ok := l.under.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Info logs at LevelInfo.
func (l *Logger) Info(kind string, fields map[string]any) { l.Log(LevelInfo, kind, fields) }

// Debug logs at LevelDebug.
func (l *Logger) Debug(kind string, fields map[string]any) { l.Log(LevelDebug, kind, fields) }
