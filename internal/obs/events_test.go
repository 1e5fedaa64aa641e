package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestNopLoggerIsSafe(t *testing.T) {
	var l *Logger
	if l.Enabled(LevelInfo) {
		t.Fatal("nil logger must report disabled")
	}
	l.Info(EventRunStart, map[string]any{"x": 1})
	l.Debug(EventEpisode, nil)
	l.Flush()
	if err := l.Close(); err != nil {
		t.Fatal("nil logger Close must be a no-op")
	}
	if got := NewLogger(nil, LevelDebug); got != nil {
		t.Fatal("NewLogger(nil, ...) must return the nop logger")
	}
}

// closeRecorder counts Close calls to verify Close is idempotent and
// reaches the underlying writer.
type closeRecorder struct {
	bytes.Buffer
	closes int
}

func (c *closeRecorder) Close() error { c.closes++; return nil }

func TestLoggerFlushAndCloseSemantics(t *testing.T) {
	var cr closeRecorder
	l := NewLogger(&cr, LevelDebug)
	l.Debug(EventEpisode, map[string]any{"i": 1})
	if cr.Len() != 0 {
		t.Fatal("debug event should be buffered, not written")
	}
	l.Info(EventRunStop, nil)
	if cr.Len() == 0 {
		t.Fatal("info event must flush the buffer")
	}
	before := cr.Len()
	l.Debug(EventEpisode, map[string]any{"i": 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if cr.Len() <= before {
		t.Fatal("Close must flush trailing buffered events")
	}
	if cr.closes != 1 {
		t.Fatalf("underlying Close called %d times, want 1", cr.closes)
	}
	l.Debug(EventEpisode, nil) // dropped after Close
	l.Flush()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if cr.closes != 1 {
		t.Fatalf("Close not idempotent: %d underlying closes", cr.closes)
	}
}

func TestLoggerWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.now = func() time.Time { return time.Unix(1700000000, 0) }
	l.Info(EventRunStart, map[string]any{"nodes": 64, "pattern": "uniform_random"})
	l.Debug(EventEpisode, map[string]any{"episode": 1, "reward": -2.5})
	l.Debug(EventEpisode, map[string]any{"episode": 2, "value_mse": math.NaN(), "reward": math.Inf(-1)})
	l.Flush() // Debug events are buffered until a Flush/Close or an Info event

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line is not JSON: %v: %s", err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if lines[0]["event"] != EventRunStart || lines[0]["level"] != "info" {
		t.Fatalf("bad envelope: %v", lines[0])
	}
	if lines[0]["nodes"] != float64(64) {
		t.Fatalf("fields not flattened: %v", lines[0])
	}
	if lines[1]["reward"] != -2.5 {
		t.Fatalf("bad episode event: %v", lines[1])
	}
	// Non-finite fields are written as null, not dropped with the event.
	if v, ok := lines[2]["value_mse"]; !ok || v != nil || lines[2]["reward"] != nil || lines[2]["episode"] != float64(2) {
		t.Fatalf("bad non-finite episode event: %v", lines[2])
	}
	if _, err := time.Parse(time.RFC3339Nano, lines[0]["ts"].(string)); err != nil {
		t.Fatalf("bad timestamp: %v", err)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debug(EventInterval, nil)
	l.Flush()
	if buf.Len() != 0 {
		t.Fatal("debug event written despite info level")
	}
	if l.Enabled(LevelDebug) {
		t.Fatal("Enabled(debug) at info level")
	}
	l.Info(EventRunStop, nil)
	if buf.Len() == 0 {
		t.Fatal("info event dropped")
	}
}

func TestLoggerConcurrentWritesStayLineAtomic(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Debug(EventEpisode, map[string]any{"worker": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	l.Flush()
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("interleaved write produced invalid JSON: %s", sc.Text())
		}
		n++
	}
	if n != 8*200 {
		t.Fatalf("got %d lines, want %d", n, 8*200)
	}
}
