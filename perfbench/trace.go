package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"pebble/internal/obs"
)

// span is one timed call into a layer. Spans of one operation share Op; the
// root span of an operation has Parent -1. Names are "<layer>.<what>", so a
// span's layer is the text before the first dot.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated process-wide while the span was
	// open; -1 when the span overlaps other clients' work and so cannot be
	// attributed.
	Alloc int64 `json:"alloc_bytes"`
}

// tracer keeps every span in memory until the run ends, with the counts the
// workload records per operation and the class of each traced operation of
// the measured loop. A nil *tracer is the untraced mode: every method is a
// no-op, so the measured code paths are the same in both modes apart from
// these calls.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span                       // guarded by mu
	counts  map[int64]map[string]float64 // guarded by mu; per operation
	classes map[int64]string             // guarded by mu; traced loop operations
	weights map[string]float64           // guarded by mu; per class
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[int64]map[string]float64{},
		classes: map[int64]string{}, weights: map[string]float64{}}
}

// count adds v to the figure name of operation op.
func (t *tracer) count(op int64, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	addTo(t.counts, op, name, v)
}

// loopOp marks op as a traced operation of the measured loop, of the given
// class; one pass of the loop runs weight operations of that class.
func (t *tracer) loopOp(op int64, class string, weight float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.classes[op] = class
	t.weights[class] = weight
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int32, withAlloc bool) int32 {
	if t == nil {
		return -1
	}
	alloc := int64(-1)
	if withAlloc {
		alloc = heapAllocs()
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, Alloc: alloc})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	alloc := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if s.Alloc >= 0 {
		s.Alloc = alloc - s.Alloc
	}
}

// add records a finished span whose bounds were measured elsewhere (server
// timestamps, job events). Its allocations are unattributed.
func (t *tracer) add(name string, op int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Alloc: -1})
	return id
}

// obsSpanNames maps the program's own recorder phases onto benchmark span
// names, so the phases a recorder reports become child spans of the call
// that triggered them.
var obsSpanNames = map[string]string{
	"schedule":         "engine.schedule",
	"collector_finish": "provenance.collector_finish",
	"pattern_match":    "treepattern.match",
	"pattern_compile":  "treepattern.compile",
	"backtrace":        "backtrace.trace",
	"run_load":         "provenance.lazy_load",
	"index_build":      "backtrace.index_build",
}

// tap turns a recorder's phase events into spans nested under the span the
// benchmark has open around the call (set with setParent). One tap serves
// one client: the loops that use it make one call at a time.
type tap struct {
	t *tracer

	mu     sync.Mutex
	op     int64   // guarded by mu
	parent int32   // guarded by mu
	open   []int32 // guarded by mu; stack of phase spans still open
	rename string  // guarded by mu; overrides the index_build name (sidecar loads)
}

func (tp *tap) setParent(op int64, parent int32) {
	if tp == nil {
		return
	}
	tp.mu.Lock()
	tp.op, tp.parent, tp.open = op, parent, tp.open[:0]
	tp.mu.Unlock()
}

// setIndexName names the index phase: a tracer installing a sidecar reports
// it under the same recorder phase as one building its indexes.
func (tp *tap) setIndexName(name string) {
	if tp == nil {
		return
	}
	tp.mu.Lock()
	tp.rename = name
	tp.mu.Unlock()
}

// attach installs the tap on rec (no-op for a nil tap).
func (tp *tap) attach(rec *obs.Recorder) {
	if tp == nil || rec == nil {
		return
	}
	rec.SetTap(tp.event)
}

func (tp *tap) event(ev obs.Event) {
	switch ev.Kind {
	case "span_start":
		name, ok := obsSpanNames[ev.Span]
		if !ok {
			return
		}
		tp.mu.Lock()
		defer tp.mu.Unlock()
		if ev.Span == "index_build" && tp.rename != "" {
			name = tp.rename
		}
		parent := tp.parent
		if n := len(tp.open); n > 0 {
			parent = tp.open[n-1]
		}
		tp.open = append(tp.open, tp.t.begin(name, tp.op, parent, true))
	case "span_end":
		if _, ok := obsSpanNames[ev.Span]; !ok {
			return
		}
		tp.mu.Lock()
		defer tp.mu.Unlock()
		if n := len(tp.open); n > 0 {
			tp.t.end(tp.open[n-1])
			tp.open = tp.open[:n-1]
		}
	}
}

// Phases of a run, each reported per unit of its own work.
const (
	phaseSetup   = "setup"   // per set-up repetition
	phaseAnswers = "answers" // the answer checks, done once
	phaseLoop    = "loop"    // per pass of the measured loop
)

// figures derives each operation's layer figures from its spans and adds
// the counts recorded with count. From the spans: per layer, the self time
// (the time its spans were open minus the part their child spans cover) as
// "self.<layer>" and the heap bytes allocated in that self time as
// "alloc.<layer>"; per span name, the time open as "incl.<name>"; and the
// duration of the root spans as "root_wall", which the layer self times add
// up to by construction.
//
// The figures come back per phase and per unit of work, so they do not grow
// with the length of the run: set-up per repetition (the run made setups
// of them), the answer checks as they are, and the loop per pass, that is,
// for each class the mean over its traced operations times the class's
// weight, summed over the classes.
func (t *tracer) figures(setups int) map[string]map[string]float64 {
	out := map[string]map[string]float64{phaseSetup: {}, phaseAnswers: {}, phaseLoop: {}}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	perOp := map[int64]map[string]float64{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed: the run was aborted mid-operation
		}
		dur := s.End - s.Start
		var ivs [][2]int64
		childAlloc := int64(0)
		for _, c := range children[s.ID] {
			cs := t.spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
			if cs.Alloc > 0 {
				childAlloc += cs.Alloc
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		addTo(perOp, s.Op, "self."+layer, float64(dur-covered(ivs))/1e9)
		if s.Alloc >= 0 {
			addTo(perOp, s.Op, "alloc."+layer, float64(max(0, s.Alloc-childAlloc)))
		}
		addTo(perOp, s.Op, "incl."+s.Name, float64(dur)/1e9)
		if s.Parent < 0 {
			addTo(perOp, s.Op, "root_wall", float64(dur)/1e9)
		}
	}
	for op, m := range t.counts {
		for k, v := range m {
			addTo(perOp, op, k, v)
		}
	}
	n := map[string]float64{}
	for _, class := range t.classes {
		n[class]++
	}
	for op, m := range perOp {
		var phase string
		scale := 1.0
		switch {
		case op == opSetup:
			phase, scale = phaseSetup, 1.0/float64(max(setups, 1))
		case op == opAnswers:
			phase = phaseAnswers
		default:
			class, ok := t.classes[op]
			if !ok {
				continue
			}
			phase, scale = phaseLoop, t.weights[class]/n[class]
		}
		for k, v := range m {
			out[phase][k] += v * scale
		}
	}
	return out
}

func addTo(m map[int64]map[string]float64, op int64, key string, v float64) {
	if m[op] == nil {
		m[op] = map[string]float64{}
	}
	m[op][key] += v
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every span as JSON to path.
func (t *tracer) writeSpans(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runtimeSample is a snapshot of the process-wide counters the runtime
// exposes; deltas between two samples cover the work in between.
type runtimeSample struct {
	allocBytes int64
	gcCycles   int64
	gcCPU      float64
	totalCPU   float64
	procCPU    float64 // user+system seconds from getrusage
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	s.allocBytes = int64(ms[0].Value.Uint64())
	s.gcCycles = int64(ms[1].Value.Uint64())
	s.gcCPU = ms[2].Value.Float64()
	s.totalCPU = ms[3].Value.Float64()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s
}

// cpuNow is the process's CPU time (user and system, all threads) in
// seconds. Unlike wall time it excludes time the CPUs were taken away.
func cpuNow() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// heapAllocs returns the cumulative heap bytes allocated by the process.
func heapAllocs() int64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}
