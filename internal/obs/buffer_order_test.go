package obs_test

// The Buffer publication contract under cancellation: when the
// scheduler aborts a build mid-flight, the counter deltas the shared
// Collector ends up with must be exactly the committed prefix's — no
// partial flush from a cancelled worker, no torn read under -race,
// and first-Add ordering preserved through FlushTo. This is the unit
// half of the determinism contract (DESIGN.md §4e); the scheduler
// tests cover the integrated half.

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestBufferFlushOrderAndReset: flushes publish in first-Add order and
// empty the buffer, so a reused worker buffer cannot leak a prior
// unit's deltas into the next commit.
func TestBufferFlushOrderAndReset(t *testing.T) {
	b := obs.NewBuffer()
	b.Add("z.last", 1)
	b.Add("a.first", 2)
	b.Add("z.last", 3)
	b.Add("m.mid", 5)

	var got []string
	sink := recorderFunc(func(name string, delta int64) {
		got = append(got, name)
	})
	b.FlushTo(sink)
	want := []string{"z.last", "a.first", "m.mid"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flush order %v, want first-Add order %v", got, want)
	}
	if b.Get("z.last") != 0 {
		t.Fatal("flush did not reset the buffer")
	}
	got = nil
	b.FlushTo(sink)
	if len(got) != 0 {
		t.Fatalf("second flush republished: %v", got)
	}
}

// recorderFunc adapts a func to obs.Recorder.
type recorderFunc func(name string, delta int64)

func (f recorderFunc) Add(name string, delta int64) { f(name, delta) }

// TestBufferHandoffUnderRace: many workers filling private buffers
// concurrently, a committer flushing each into one Collector over a
// channel (the scheduler's exact handoff shape). Run under -race this
// proves the channel edge is the only synchronization the Buffer
// needs; the assertion proves no delta is lost or duplicated.
func TestBufferHandoffUnderRace(t *testing.T) {
	col := obs.New()
	const workers = 8
	const perWorker = 50
	ch := make(chan *obs.Buffer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := obs.NewBuffer()
			for i := 0; i < perWorker; i++ {
				b.Add("work.items", 1)
				b.Add("work.bytes", 10)
			}
			ch <- b
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < workers; i++ {
			(<-ch).FlushTo(col)
		}
	}()
	wg.Wait()
	<-done
	c := col.Counters()
	if c["work.items"] != workers*perWorker || c["work.bytes"] != workers*perWorker*10 {
		t.Fatalf("handoff lost deltas: %v", c)
	}
}

// filterDeterministic drops the counters the determinism contract
// excludes: scheduler-width artifacts (matched by suffix, since the
// keys are fully qualified, e.g. build.parallelism.max) and wall-clock
// timings.
func filterDeterministic(c map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range c {
		if strings.HasSuffix(k, ".parallelism.max") || strings.HasSuffix(k, ".sched.wait_ns") {
			continue
		}
		if strings.HasPrefix(k, "time.") || strings.HasSuffix(k, "_ns") {
			continue
		}
		out[k] = v
	}
	return out
}

// TestCancelledWorkersPublishNothing is the cancellation half, driven
// through the real scheduler: a failing build at -j1 and -j8 must
// yield identical deterministic counter deltas, even though at -j8
// cancelled in-flight workers had half-filled buffers when the abort
// hit. Run under -race, it also proves the abort path's buffer
// handling is data-race free.
func TestCancelledWorkersPublishNothing(t *testing.T) {
	files := []core.File{
		{Name: "a.sml", Source: "structure A = struct val one = 1 end"},
		{Name: "bad.sml", Source: "structure Bad = struct val x = A.one + missing end"},
		{Name: "c.sml", Source: "structure C = struct val y = Bad.x end"},
		{Name: "i1.sml", Source: "structure I1 = struct val a = 10 end"},
		{Name: "i2.sml", Source: "structure I2 = struct val b = 20 end"},
	}
	run := func(jobs int) map[string]int64 {
		col := obs.New()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Obs: col, Jobs: jobs}
		if _, err := m.Build(files); err == nil {
			t.Fatal("build of failing group succeeded")
		}
		return filterDeterministic(m.Counters)
	}
	base := run(1)
	if base["build.units"] == 0 {
		t.Fatalf("baseline counters empty: %v", base)
	}
	for _, jobs := range []int{2, 8} {
		for round := 0; round < 5; round++ {
			if got := run(jobs); !reflect.DeepEqual(got, base) {
				t.Fatalf("-j%d counters diverge from -j1:\n-j%d: %v\n-j1: %v",
					jobs, jobs, got, base)
			}
		}
	}
}
