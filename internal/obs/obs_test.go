package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"verro/internal/par"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.Root() != nil {
		t.Fatal("nil trace must have a nil root")
	}
	tr.AttachPool(par.NewPool(2))
	tr.Finish()
	if tr.Report() != nil {
		t.Fatal("nil trace must report nil")
	}
	if err := tr.WriteFile(t.TempDir() + "/x.json"); err != nil {
		t.Fatalf("nil WriteFile: %v", err)
	}

	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span Child must stay nil")
	}
	c.Add("n", 1)
	c.End()
	if c.Counter("n") != 0 {
		t.Fatal("nil span counter must read 0")
	}
}

func TestSpanTreeAndCounters(t *testing.T) {
	tr := NewTrace("run")
	a := tr.Root().Child("phase1")
	a.Add(CKeyFramesPicked, 3)
	a.Add(CKeyFramesPicked, 2)
	a.End()
	b := tr.Root().Child("phase2")
	inner := b.Child("render")
	inner.Add(CObjectsRendered, 7)
	inner.End()
	b.End()
	tr.Finish()

	rep := tr.Report()
	if rep.Span.Name != "run" || len(rep.Span.Children) != 2 {
		t.Fatalf("unexpected span tree: %+v", rep.Span)
	}
	if got := rep.Span.Find("phase1").Counters[CKeyFramesPicked]; got != 5 {
		t.Fatalf("phase1 %s = %d, want 5", CKeyFramesPicked, got)
	}
	if rep.Span.Find("render") == nil {
		t.Fatal("nested span not found")
	}
	if rep.Counters[CObjectsRendered] != 7 || rep.Counters[CKeyFramesPicked] != 5 {
		t.Fatalf("aggregated counters wrong: %v", rep.Counters)
	}
	if rep.DurationNS < 0 || rep.Span.Find("phase1").DurationNS < 0 {
		t.Fatal("negative durations")
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestConcurrentAdds(t *testing.T) {
	tr := NewTrace("run")
	s := tr.Root().Child("stage")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("n"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestPoolGauges(t *testing.T) {
	tr := NewTrace("run")
	p := par.NewPool(4)
	tr.AttachPool(p)
	tr.AttachPool(p) // idempotent
	p.For(64, 1, func(lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
	})
	tr.Finish()
	rep := tr.Report()
	if rep.Pool == nil {
		t.Fatal("no pool block in report")
	}
	if rep.Pool.Workers != 4 {
		t.Errorf("pool workers = %d, want 4", rep.Pool.Workers)
	}
	if rep.Pool.Calls != 1 || rep.Pool.ChunksDispatched != 4 {
		t.Errorf("calls=%d chunks=%d, want 1/4 (pool attached twice must not double-count)",
			rep.Pool.Calls, rep.Pool.ChunksDispatched)
	}
	var sum int64
	for _, ns := range rep.Pool.BusyNSPerWorker {
		sum += ns
	}
	if sum != rep.Pool.BusyTotalNS {
		t.Errorf("busy total %d != per-worker sum %d", rep.Pool.BusyTotalNS, sum)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tr := NewTrace("verro")
	tr.Root().Child("detect").Add(CFramesDetected, 10)
	tr.AttachPool(par.NewPool(2))
	tr.Finish()

	var buf bytes.Buffer
	if err := tr.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Name != "verro" || back.Span.Find("detect") == nil {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	if back.Counters[CFramesDetected] != 10 {
		t.Fatalf("counters lost: %v", back.Counters)
	}
}
