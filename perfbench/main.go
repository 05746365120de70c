// Command perfbench is Pebble's benchmark: one program, three workloads
// (capture, query, service), every answer checked against one computed in
// set-up. With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// traces the calls it makes into each layer and prints the per-layer
// metrics. The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it carries
// the details: machine, settings, sample counts, the workload's own metric
// names and, when traced, the per-layer breakdown.
//
//	go build -o perfbench . && ./perfbench -workload capture -seed 1 -seconds 30 -trace 0
//
// layers.json describes the workloads and metrics and maps each layer metric
// to the end-to-end metrics it should move; README.md gives the reasons
// behind the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds what a run leaves behind: span dumps and the service
// workload's daemon data directory. It is relative to the working directory,
// the root of the checkout.
const outDir = ".bench_build/perfbench"

// A run performs its set-up setupReps times at least, and more while the
// set-ups together took under setupSeconds of wall time, up to
// 5 x setupReps: set-ups of a few tens of milliseconds vary by half from
// one to the next. setup_s is the median; the state of the last repetition
// is the one measured.
const (
	setupReps    = 9
	setupSeconds = 2.0
)

// named is one metric under the name the workload gives it, with the
// number of samples behind it and, for a tail, the percentile taken.
type named struct {
	Name       string  `json:"name"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// report is what a workload hands back; main derives the metrics from it.
type report struct {
	Attempted, Failed int
	Failures          []string // the first few failure messages

	// Per set-up repetition: the process CPU seconds it used, and its wall
	// time.
	Setup, SetupWall []float64

	// Latencies by operation class (a scenario, or a scenario and start
	// operator): Main is the workload's main operation, Alt its second one.
	Main, Alt map[string][]float64
	// The process CPU seconds of the same operations (user and system, all
	// threads, garbage collection included), by class. CPU time leaves out
	// the time a shared machine's hypervisor takes the CPUs away, which
	// moves wall times by 25% and more from one minute to the next.
	MainCPU, AltCPU map[string][]float64
	// Ops completed and the process CPU seconds they used.
	Ops   int
	CPU   float64
	Bytes float64 // provenance bytes per input row of one pass over the mix
	// The peak resident set in MB of each stretch of the loop (see
	// rssWindows; service: each epoch).
	RSSPeaks []float64

	// TracedMain holds, in a traced run, the latencies of the traced half of
	// the operations; Main then holds the untraced half.
	TracedMain map[string][]float64

	Named    []named
	Layers   map[string]float64 // workload-only per-layer metrics (traced runs)
	Settings map[string]any
	Loop     loopStats
}

func newReport() *report {
	return &report{Main: map[string][]float64{}, Alt: map[string][]float64{}, TracedMain: map[string][]float64{},
		MainCPU: map[string][]float64{}, AltCPU: map[string][]float64{}}
}

// moreSetup reports whether the set-up is to run once more.
func (r *report) moreSetup() bool {
	n, wall := len(r.Setup), 0.0
	for _, s := range r.SetupWall {
		wall += s
	}
	return n < setupReps || (n < 5*setupReps && wall < setupSeconds)
}

// setupDone records one set-up repetition that began at wall time t0 with
// the process at c0 CPU seconds.
func (r *report) setupDone(t0 time.Time, c0 float64) {
	r.Setup = append(r.Setup, cpuNow()-c0)
	r.SetupWall = append(r.SetupWall, since(t0))
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// loopStats are the runtime counters over the measured loop, summed over
// its stretches (the service loop leaves out its daemon restarts).
type loopStats struct {
	d    runtimeSample
	Rows int64 // input rows the loop's operations processed
}

func (l *loopStats) add(start, end runtimeSample) {
	l.d.allocBytes += end.allocBytes - start.allocBytes
	l.d.gcCycles += end.gcCycles - start.gcCycles
	l.d.gcCPU += end.gcCPU - start.gcCPU
	l.d.totalCPU += end.totalCPU - start.totalCPU
	l.d.procCPU += end.procCPU - start.procCPU
}

// config is what every workload gets.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Workers  int // engine workers, runners and clients: runtime.NumCPU
	tr       *tracer
}

type workloadFn func(cfg config) (*report, error)

var workloads = map[string]workloadFn{
	"capture": runCapture,
	"query":   runQuery,
	"service": runService,
}

func main() {
	wl := flag.String("workload", "", "workload: capture, query or service")
	seed := flag.Int64("seed", 1, "seed for the generated inputs and the order of operations")
	seconds := flag.Int("seconds", 30, "seconds the measured loop runs")
	trace := flag.Int("trace", 0, "1 traces calls into each layer and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload capture|query|service, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if *seed == 0 {
		// workload.Scale treats seed 0 as "use the default seed".
		*seed = math.MaxInt64
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Workers: runtime.NumCPU()}
	if cfg.Trace {
		cfg.tr = newTracer()
	}
	steal0, total0 := cpuTicks()
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	if cfg.Trace {
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", *wl, *seed))
		if err := cfg.tr.writeSpans(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
	}
	steal1, total1 := cpuTicks()
	steal := 0.0
	if total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	emit(cfg, rep, steal)
}

// e2e is one end-to-end metric as BENCHMARK.json names it.
type e2e struct {
	name, unit string
	value      float64
}

func endToEnd(rep *report) []e2e {
	return []e2e{
		{"setup_s", "s", median(rep.Setup)},
		{"main_cpu_s", "s", meanOfMeans(rep.MainCPU)},
		{"alt_cpu_s", "s", meanOfMeans(rep.AltCPU)},
		{"cpu_per_op_s", "s", rep.CPU / float64(max(rep.Ops, 1))},
		{"prov_bytes_per_row", "B/row", rep.Bytes},
		{"peak_rss_mb", "MB", loopPeakRSS(rep)},
		{"success_ratio", "ratio", 1 - float64(rep.Failed)/float64(max(rep.Attempted, 1))},
	}
}

// emit prints the detail line and the result line. steal is the share of
// the machine's CPU time the hypervisor gave to other guests during the run;
// it moves the wall times reported in the detail line, not the CPU times
// the result gates.
func emit(cfg config, rep *report, steal float64) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	detail := map[string]any{
		"workload":    cfg.Workload,
		"seed":        cfg.Seed,
		"seconds":     cfg.Seconds,
		"trace":       cfg.Trace,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"settings":    rep.Settings,
		"failures":    rep.Failures,
		"fail_ratio":  float64(rep.Failed) / float64(max(rep.Attempted, 1)),
		"steal_share": steal,
	}
	ends := endToEnd(rep)
	samples := map[string]int{
		"setup_s":      len(rep.Setup),
		"main_cpu_s":   countSamples(rep.MainCPU),
		"alt_cpu_s":    countSamples(rep.AltCPU),
		"cpu_per_op_s": rep.Ops,
		"peak_rss_mb":  len(rep.RSSPeaks),
	}
	e2eDetail := map[string]any{}
	for _, m := range ends {
		e2eDetail[m.name] = named{Name: m.name, Value: m.value, Unit: m.unit, Samples: samples[m.name]}
	}
	detail["end_to_end"] = e2eDetail
	// The wall times behind the gated CPU times.
	detail["wall"] = map[string]any{
		"setup_s":           named{Name: "setup_s", Value: median(rep.SetupWall), Unit: "s", Samples: len(rep.SetupWall)},
		"main_p50_s":        named{Name: "main_p50_s", Value: meanOfMedians(rep.Main), Unit: "s", Samples: countSamples(rep.Main)},
		"alt_p50_s":         named{Name: "alt_p50_s", Value: meanOfMedians(rep.Alt), Unit: "s", Samples: countSamples(rep.Alt)},
		"main_p50_by_class": classMedians(rep.Main),
		"alt_p50_by_class":  classMedians(rep.Alt),
	}
	detail["setup_runs"] = map[string][]float64{"cpu_s": rep.Setup, "wall_s": rep.SetupWall}
	detail["rss_peaks_mb"] = rep.RSSPeaks
	detail["main_cpu_by_class"] = classMedians(rep.MainCPU)
	detail["alt_cpu_by_class"] = classMedians(rep.AltCPU)
	detail["workload_metrics"] = rep.Named
	if cfg.Trace {
		phases := cfg.tr.figures(len(rep.Setup))
		loop := phases[phaseLoop]
		for k, v := range runtimeFigures(rep) {
			loop[k] = v
		}
		total := map[string]float64{}
		byPhase := map[string]map[string]float64{}
		for phase, fig := range phases {
			for k, v := range fig {
				total[k] += v
			}
			byPhase[phase] = layerMetrics(fig)
		}
		layers := layerMetrics(total)
		for k, v := range rep.Layers {
			layers[k] = v
		}
		traced := meanOfMedians(rep.TracedMain)
		untraced := meanOfMedians(rep.Main)
		if untraced > 0 {
			layers["trace.overhead_ratio"] = traced/untraced - 1
		}
		detail["trace_overhead"] = map[string]any{
			"main_p50_s_traced":   traced,
			"main_p50_s_untraced": untraced,
			"traced_samples":      countSamples(rep.TracedMain),
			"untraced_samples":    countSamples(rep.Main),
		}
		detail["layers_by_phase"] = byPhase
		// The loop's root spans: their wall time per pass, the share of it
		// the layer self times cover (1 by construction: a check on the span
		// tree, not on the instrumentation), and the share left to the
		// benchmark's own root span, which no layer call covers.
		selfSum := 0.0
		for k, v := range loop {
			if strings.HasPrefix(k, "self.") {
				selfSum += v
			}
		}
		if wall := loop["root_wall"]; wall > 0 {
			detail["loop_pass_wall_s"] = wall
			detail["self_sum_over_wall"] = selfSum / wall
			detail["unattributed_share"] = loop["self.bench"] / wall
		}
		for _, name := range perLayerNames {
			metrics[name] = metric{layers[name], perLayerUnit(name)}
		}
		extraLayers := map[string]float64{}
		for name, v := range layers {
			if _, ok := metrics[name]; !ok {
				extraLayers[name] = v
			}
		}
		detail["workload_layers"] = extraLayers
	} else {
		for _, m := range ends {
			metrics[m.name] = metric{m.value, m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode detail: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	res, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
}

// perLayerNames are the per-layer metrics every workload reports in a traced
// run (BENCHMARK.json lists them); a workload's other layer metrics go to the
// detail line.
var perLayerNames = []string{
	"workload.gen_s", "workload.rows",
	"engine.run_s", "engine.alloc_bytes", "engine.schedule_s",
	"engine.source_s", "engine.filter_s", "engine.select_s", "engine.map_s",
	"engine.flatten_s", "engine.join_s", "engine.union_s", "engine.aggregate_s",
	"engine.rows_in", "engine.rows_out", "engine.expr_evals", "engine.keys_hashed",
	"provenance.capture_s", "provenance.collector_finish_s", "provenance.assoc_rows",
	"provenance.alloc_bytes", "provenance.encode_s", "provenance.stream_bytes",
	"provenance.lazy_load_s", "provenance.decoded_assoc_ratio",
	"backtrace.index_build_s", "backtrace.sidecar_bytes", "backtrace.index_load_s",
	"backtrace.trace_s", "backtrace.traced_items", "backtrace.alloc_bytes",
	"treepattern.match_s", "treepattern.matched_items", "treepattern.alloc_bytes",
	"core.render_s",
	"runtime.gc_cpu_share", "runtime.gc_cycles", "runtime.alloc_bytes_per_row", "runtime.cpu_s",
	"trace.overhead_ratio",
}

func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "_per_row"):
		return "B/row"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	}
	return "count"
}

// layerMetrics names figures (see tracer.figures) as per-layer metrics.
// Counts are recorded under their metric names already.
func layerMetrics(fig map[string]float64) map[string]float64 {
	m := map[string]float64{
		"workload.gen_s":                fig["incl.workload.gen"],
		"engine.run_s":                  fig["self.engine"],
		"engine.alloc_bytes":            fig["alloc.engine"],
		"engine.schedule_s":             fig["incl.engine.schedule"],
		"provenance.capture_s":          fig["incl.provenance.capture"],
		"provenance.collector_finish_s": fig["incl.provenance.collector_finish"],
		"provenance.alloc_bytes":        fig["alloc.provenance"],
		"provenance.encode_s":           fig["incl.provenance.encode"],
		"provenance.lazy_load_s":        fig["incl.provenance.lazy_load"],
		"backtrace.index_build_s":       fig["incl.backtrace.index_build"],
		"backtrace.index_load_s":        fig["incl.backtrace.index_load"],
		"backtrace.trace_s":             fig["incl.backtrace.trace"],
		"backtrace.alloc_bytes":         fig["alloc.backtrace"],
		"treepattern.match_s":           fig["incl.treepattern.match"],
		"treepattern.alloc_bytes":       fig["alloc.treepattern"],
		"core.render_s":                 fig["incl.core.render"],
	}
	for k, v := range fig {
		switch kind, rest, ok := strings.Cut(k, "."); {
		case !ok:
		case kind == "self":
			m["self."+rest+"_s"] = v
		case kind == "incl" && (rest == "server.queue_wait" || rest == "server.run"):
			m[rest+"_s"] = v
		case kind != "incl" && kind != "alloc":
			m[k] = v
		}
	}
	if v, ok := fig["self.sdk"]; ok {
		// The client-observed job minus the server's queue wait and run.
		m["sdk.overhead_s"] = v
	}
	if total := fig["provenance.assoc_bytes_total"]; total > 0 {
		m["provenance.decoded_assoc_ratio"] = fig["provenance.assoc_bytes_decoded"] / total
	}
	return m
}

// runtimeFigures are the runtime's counters over the whole measured loop,
// traced and untraced operations alike, per operation or per input row.
func runtimeFigures(rep *report) map[string]float64 {
	l := rep.Loop
	m := map[string]float64{}
	if l.d.totalCPU > 0 {
		m["runtime.gc_cpu_share"] = l.d.gcCPU / l.d.totalCPU
	}
	if l.Rows > 0 {
		m["runtime.alloc_bytes_per_row"] = float64(l.d.allocBytes) / float64(l.Rows)
	}
	if rep.Ops > 0 {
		m["runtime.gc_cycles"] = float64(l.d.gcCycles) / float64(rep.Ops)
		m["runtime.cpu_s"] = l.d.procCPU / float64(rep.Ops)
	}
	return m
}

// ---- statistics ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (q in [0, 1]), 0
// when there are no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles a tail may be reported at, highest
// first. The grid is coarse so that a run's sample count rarely moves the
// tail from one percentile to the next, and it avoids p90: with whole passes
// over ten equally sampled scenarios, p90 falls on the border between the
// slowest scenario and the next, where it jumps between the two.
var tailPercentiles = []float64{99.9, 99, 95, 75, 50}

// tail returns the highest percentile of xs that still has ten or more
// samples beyond it, and that percentile. Tails are reported, not gated:
// on the 2-vCPU machine the benchmark was tuned on, even a p95 moved by
// over 30% between runs when the machine was contended, twice as much as
// the medians did.
func tail(xs []float64) (float64, float64) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

// meanOfMedians averages the per-class medians: a balanced pass over the
// classes, immune to how many samples each class happened to get.
func meanOfMedians(by map[string][]float64) float64 {
	if len(by) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range by {
		sum += median(xs)
	}
	return sum / float64(len(by))
}

// meanOfMeans averages the per-class means. The gated CPU times take means,
// not medians: a collection's CPU lands on the few operations it overlaps,
// and a median drops them, so it moves with where collections fall; a mean
// carries their cost like the whole loop does.
func meanOfMeans(by map[string][]float64) float64 {
	if len(by) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range by {
		m := 0.0
		for _, x := range xs {
			m += x
		}
		sum += m / float64(len(xs))
	}
	return sum / float64(len(by))
}

func classMedians(by map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(by))
	for k, xs := range by {
		out[k] = median(xs)
	}
	return out
}

func countSamples(by map[string][]float64) int {
	n := 0
	for _, xs := range by {
		n += len(xs)
	}
	return n
}

// cpuTicks returns the machine's steal time and total CPU time, in clock
// ticks, from the first line of /proc/stat; zeros when it cannot be read.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Guest time (fields 9 and 10) is already counted in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// loopPeakRSS is the upper quartile of the peak resident sets of the loop's
// stretches. Where collections fall moves the peak of a whole run by 10-15%
// from run to run, and a stretch's peak too, but the upper quartile over a
// run's stretches, which each start from the same collected heap, stays
// within a few percent. Without stretches it is the peak of the run.
func loopPeakRSS(rep *report) float64 {
	if len(rep.RSSPeaks) == 0 {
		return peakRSSMB()
	}
	return quantile(rep.RSSPeaks, 0.75)
}

// rssWindows cuts a closed loop into stretches of a fixed amount of work,
// steps steps each, and records each one's peak resident set. The
// stretches are counted in work, not in seconds, so that a slower host does
// not give each fewer collections and so lower peaks. Each stretch starts
// from a collected heap whose free pages went back to the kernel
// (freshPeakRSS); the runtime counters of rep.Loop leave out those
// collections.
type rssWindows struct {
	steps, n int
	rt       runtimeSample
}

func (w *rssWindows) begin() {
	freshPeakRSS()
	w.n, w.rt = 0, sampleRuntime()
}

// tick is called before each step of work. When the current stretch
// already holds steps steps, it ends it and begins the next.
func (w *rssWindows) tick(rep *report) {
	if w.n >= w.steps {
		w.end(rep)
		w.begin()
	}
	w.n++
}

// end closes the current stretch; a stretch cut short gives no peak.
func (w *rssWindows) end(rep *report) {
	rep.Loop.add(w.rt, sampleRuntime())
	if w.n >= w.steps {
		rep.RSSPeaks = append(rep.RSSPeaks, peakRSSMB())
	}
}

// freshPeakRSS collects the heap, returns its free pages to the kernel and
// makes the kernel restart the process's peak resident set (VmHWM) from
// the resident set left.
func freshPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // the peak then covers more than the stretch
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
