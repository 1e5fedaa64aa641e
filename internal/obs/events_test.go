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
	if l.Enabled(LevelDebug) {
		t.Fatal("nil logger must report disabled")
	}
	l.Debug(EventEpisode, nil)
	l.Flush()
	if got := NewLogger(nil, LevelDebug); got != nil {
		t.Fatal("NewLogger(nil, ...) must return the nop logger")
	}
}

func TestLoggerBuffersUntilFlush(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.Debug(EventEpisode, map[string]any{"i": 1})
	if buf.Len() != 0 {
		t.Fatal("event should be buffered, not written")
	}
	l.Flush()
	if buf.Len() == 0 {
		t.Fatal("Flush must write the buffered events")
	}
	before := buf.Len()
	l.Flush()
	if buf.Len() != before {
		t.Fatal("Flush not idempotent")
	}
}

func TestLoggerWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.now = func() time.Time { return time.Unix(1700000000, 0) }
	l.Debug(EventEpisode, map[string]any{"worker": 3, "valid": true})
	l.Debug(EventEpisode, map[string]any{"episode": 1, "reward": -2.5})
	l.Debug(EventEpisode, map[string]any{"episode": 2, "value_mse": math.NaN(), "reward": math.Inf(-1)})
	l.Flush() // events are buffered until a Flush

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
	if lines[0]["event"] != EventEpisode || lines[0]["level"] != "debug" {
		t.Fatalf("bad envelope: %v", lines[0])
	}
	if lines[0]["worker"] != float64(3) || lines[0]["valid"] != true {
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
	l.Debug(EventEpisode, nil)
	l.Flush()
	if buf.Len() != 0 {
		t.Fatal("debug event written despite info level")
	}
	if l.Enabled(LevelDebug) || !l.Enabled(LevelInfo) {
		t.Fatal("Enabled disagrees with the info level")
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
