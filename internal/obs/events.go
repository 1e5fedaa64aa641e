package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Level orders event severities. Every event the stack writes is a
// high-volume Debug event (one per search episode); a logger built at
// LevelInfo drops them all.
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

// EventEpisode is the kind of drl's per-episode event: one DRL
// exploration cycle, with its worker, reward, guided steps and validity.
const EventEpisode = "episode"

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
// one Logger safe to share across learner goroutines. Events are buffered
// (32 KiB) to keep per-episode logging off the syscall path; call Flush
// when the run stops so trailing events reach the writer.
type Logger struct {
	mu  sync.Mutex
	buf *bufio.Writer
	min Level
	now func() time.Time // overridable for tests
}

// NewLogger builds a logger writing events at or above min to w. A nil w
// returns the nop (nil) logger.
func NewLogger(w io.Writer, min Level) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{buf: bufio.NewWriterSize(w, 32<<10), min: min, now: time.Now}
}

// Enabled reports whether events at level lv would be written; use it to
// skip expensive field construction.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.min
}

// Debug writes one event at LevelDebug. Fields may be nil. Errors from
// the underlying writer are dropped: telemetry must never fail the run it
// observes.
func (l *Logger) Debug(kind string, fields map[string]any) {
	if !l.Enabled(LevelDebug) {
		return
	}
	e := Event{Time: l.now(), Level: LevelDebug, Kind: kind, Fields: fields}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(append(data, '\n'))
}

// Flush forces buffered events to the underlying writer. Nil-safe and
// idempotent.
func (l *Logger) Flush() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Flush()
}
