package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/server"
	"pebble/internal/workload"
	"pebble/pkg/sdk"
)

// serviceGB is the service workload's input size in simulated GB.
const serviceGB = 1

// traceJobs is how many trace jobs a client submits against each of its
// pipeline jobs.
const traceJobs = 3

// factoryPrefix names the seeded scenario factories registered on the
// daemon; the daemon's built-in scenario names always generate seed 42.
const factoryPrefix = "bench-"

// serviceAnswer is the library's answer for one scenario: what every
// pipeline job and trace job against it must reproduce.
type serviceAnswer struct {
	pattern     json.RawMessage
	resultRows  int
	streamBytes int64
	rows        int64
	matched     int
	report      string
	result      []byte // compacted QueryResult.JSON
}

// daemon is an in-process pebbled on a loopback listener.
type daemon struct {
	dir string
	srv *server.Server
	hs  *http.Server
	url string
	// served is closed once the HTTP server's Serve loop has returned.
	served chan struct{}
}

func startDaemon(cfg config, in *inputs) (*daemon, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "pebbled-")
	if err != nil {
		return nil, err
	}
	factories := map[string]server.Factory{}
	for _, sc := range workload.AllScenarios() {
		sc := sc
		factories[factoryPrefix+sc.Name] = server.Factory{
			Build: func() (*engine.Pipeline, error) { return sc.Build(), nil },
			Inputs: func(_, parts int) (map[string]*engine.Dataset, error) {
				return in.datasets(sc, parts), nil
			},
		}
	}
	srv, err := server.New(server.Config{DataDir: dir, Runners: cfg.Workers, Pipelines: factories})
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the daemon down, waits for its goroutines and removes its
// data directory.
func (d *daemon) stop() {
	d.hs.Close() //nolint:errcheck // closing listener and connections
	<-d.served
	d.srv.Close()
	os.RemoveAll(d.dir) //nolint:errcheck // best-effort cleanup
}

// artifactBytes sums the sizes of the daemon's persisted artifacts.
func (d *daemon) artifactBytes() int64 {
	var n int64
	filepath.Walk(d.dir, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // best-effort sum
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	kind     string
	scenario string
	latency  float64
	info     sdk.JobInfo
	submit   time.Time
	terminal time.Time
	events   []sdk.JobEvent
	traced   bool
	requests int // HTTP requests the client made for the job
}

// runService is the service workload: an in-process pebbled driven by one
// pkg/sdk client per CPU in a closed loop. Each client submits one pipeline
// job per scenario (capture, persist .pbl/.idx, verify reload) and then
// trace jobs against each, fetching and checking every result.
func runService(cfg config) (*report, error) {
	rep := newReport()
	clients := cfg.Workers
	var in *inputs
	var d *daemon
	for rep.moreSetup() {
		if d != nil {
			d.stop()
		}
		in = nil
		settle()
		t0, c0 := time.Now(), cpuNow()
		root := cfg.tr.begin("bench.setup", opSetup, -1, true)
		in = generate(cfg, serviceGB, root)
		id := cfg.tr.begin("server.boot", opSetup, root, true)
		var err error
		d, err = startDaemon(cfg, in)
		if err == nil {
			err = createSessions(d, clients)
		}
		cfg.tr.end(id)
		cfg.tr.end(root)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, fmt.Errorf("boot daemon: %w", err)
		}
		rep.setupDone(t0, c0)
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	// The library's answers, through the same core.Session API the daemon
	// uses, with the daemon sessions' settings.
	scs := workload.AllScenarios()
	tp := (*tap)(nil)
	if cfg.tr != nil {
		tp = &tap{t: cfg.tr}
	}
	answers := map[string]*serviceAnswer{}
	root := cfg.tr.begin("bench.answers", opAnswers, -1, true)
	var passRows, passBytes int64
	for _, sc := range scs {
		a, err := libraryAnswer(cfg, tp, root, sc, in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		answers[sc.Name] = a
		passRows += a.rows
		passBytes += a.streamBytes
	}
	cfg.tr.end(root)
	rep.Bytes = float64(passBytes) / float64(passRows)

	// The closed loop runs in epochs: in each, every client makes one pass
	// over the scenarios against a freshly booted daemon.
	// pebbled keeps every job and its result in memory for its lifetime, so
	// a daemon living for the whole run would hold memory in proportion to
	// the jobs completed, and a faster program would show a higher peak RSS.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.Seconds)*time.Second+2*time.Minute)
	defer cancel()
	deadline := time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
	cls := make([]*client, clients)
	results := make([]*clientResult, clients)
	for c := range cls {
		cls[c] = &client{session: sessionName(c), answers: answers,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(c)*7919)), traceMode: cfg.tr != nil}
		results[c] = &clientResult{}
	}
	var wall float64
	var artifacts int64
	var rejected int64
	epochs := 0
	for ; time.Now().Before(deadline); epochs++ {
		if epochs > 0 {
			d.stop()
			var err error
			if d, err = startDaemon(cfg, in); err != nil {
				return nil, fmt.Errorf("reboot daemon: %w", err)
			}
			if err := createSessions(d, clients); err != nil {
				return nil, fmt.Errorf("reboot daemon: %w", err)
			}
		}
		// Per-job CPU cannot be told apart with two clients and two runners
		// busy at once. So an epoch has two phases, every client's pipeline
		// jobs and then every client's trace jobs against them, and each
		// phase's process CPU (daemon and clients) is shared out over the
		// jobs of its kind that completed.
		for _, cl := range cls {
			cl.c = sdk.New(d.url)
		}
		pend := make([][]pending, clients)
		freshPeakRSS()
		s0, t0 := sampleRuntime(), time.Now()
		nPipe := eachClient(results, func(c int) { pend[c] = cls[c].pipelines(ctx, results[c], scs, epochs) })
		s1 := sampleRuntime()
		nTrace := eachClient(results, func(c int) { cls[c].traces(ctx, results[c], pend[c]) })
		s2 := sampleRuntime()
		wall += since(t0)
		rep.Loop.add(s0, s2)
		rep.CPU += s2.procCPU - s0.procCPU
		if nPipe > 0 {
			rep.AltCPU["pipeline"] = append(rep.AltCPU["pipeline"], (s1.procCPU-s0.procCPU)/float64(nPipe))
		}
		if nTrace > 0 {
			rep.MainCPU["trace"] = append(rep.MainCPU["trace"], (s2.procCPU-s1.procCPU)/float64(nTrace))
		}
		rep.RSSPeaks = append(rep.RSSPeaks, peakRSSMB())
		artifacts += d.artifactBytes()
	}

	pipeBy := map[string][]float64{}
	traceBy := map[string][]float64{}
	tracedTrace := map[string][]float64{}
	var pipeAll, traceAll, jobsAll []float64
	var op int64
	for _, r := range results {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, f := range r.failures {
			if len(rep.Failures) < 5 {
				rep.Failures = append(rep.Failures, f)
			}
		}
		rejected += r.rejected
		for _, j := range r.jobs {
			rep.Ops++
			jobsAll = append(jobsAll, j.latency)
			if j.kind == sdk.KindPipeline {
				rep.Loop.Rows += answers[j.scenario].rows
			}
			if j.traced {
				op++
				traceJob(cfg.tr, op, j)
				if j.kind == sdk.KindTrace {
					tracedTrace[j.scenario] = append(tracedTrace[j.scenario], j.latency)
				}
				continue
			}
			if j.kind == sdk.KindPipeline {
				pipeBy[j.scenario] = append(pipeBy[j.scenario], j.latency)
				pipeAll = append(pipeAll, j.latency)
			} else {
				traceBy[j.scenario] = append(traceBy[j.scenario], j.latency)
				traceAll = append(traceAll, j.latency)
			}
		}
	}
	rep.Main, rep.Alt, rep.TracedMain = traceBy, pipeBy, tracedTrace

	tailV, pct := tail(jobsAll)
	rep.Named = []named{
		{Name: "pipeline_job_p50_s", Value: median(pipeAll), Unit: "s", Samples: len(pipeAll)},
		{Name: "trace_job_p50_s", Value: median(traceAll), Unit: "s", Samples: len(traceAll)},
		{Name: "job_tail_s", Value: tailV, Unit: "s", Samples: len(jobsAll), Percentile: pct},
		{Name: "jobs_per_s", Value: float64(rep.Ops) / wall, Unit: "1/s", Samples: rep.Ops},
	}
	rep.Settings = map[string]any{
		"sim_gb": serviceGB, "engine_workers": 1, "runners": cfg.Workers, "clients": clients, "epochs": epochs,
		"trace_jobs_per_pipeline_job": traceJobs, "input_rows": in.rows(),
	}
	if cfg.tr != nil {
		// Per pass of one client over the scenarios, like the traced jobs'
		// figures.
		passes := float64(epochs * clients)
		rep.Layers = map[string]float64{
			"server.rejected":       float64(rejected) / passes,
			"server.artifact_bytes": float64(artifacts) / passes,
		}
	}
	return rep, nil
}

func sessionName(c int) string { return fmt.Sprintf("client%d", c) }

func createSessions(d *daemon, clients int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := sdk.New(d.url)
	for i := 0; i < clients; i++ {
		if _, err := c.CreateSession(ctx, sdk.SessionSpec{Name: sessionName(i), Workers: 1}); err != nil {
			return fmt.Errorf("create session: %w", err)
		}
	}
	return nil
}

// libraryAnswer captures the scenario through the library with the daemon
// sessions' settings and answers its pattern question.
func libraryAnswer(cfg config, tp *tap, root int32, sc workload.Scenario, in *inputs) (*serviceAnswer, error) {
	rec := newRecorder(tp)
	sess := core.NewSession(core.WithWorkers(1), core.WithRecorder(rec))
	done := enter(cfg.tr, tp, "provenance.capture", opAnswers, root)
	cap, err := sess.Capture(sc.Build(), in.datasets(sc, 0))
	done()
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	countResult(cfg.tr, opAnswers, cap.Result)
	countRecorder(cfg.tr, opAnswers, rec, nil)
	p, err := persist(cfg.tr, opAnswers, root, cap)
	if err != nil {
		return nil, err
	}
	done = enter(cfg.tr, tp, "core.query", opAnswers, root)
	q, err := cap.Query(sc.Pattern)
	done()
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	id := cfg.tr.begin("core.render", opAnswers, root, true)
	report := q.Report()
	js, err := q.JSON()
	cfg.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	countQuery(cfg.tr, opAnswers, q)
	var compact bytes.Buffer
	if err := json.Compact(&compact, js); err != nil {
		return nil, fmt.Errorf("compact result: %w", err)
	}
	pat, err := json.Marshal(sc.Pattern)
	if err != nil {
		return nil, fmt.Errorf("encode pattern: %w", err)
	}
	return &serviceAnswer{pattern: pat, resultRows: cap.Result.Output.Len(), streamBytes: int64(len(p.stream)),
		rows: sourceRows(cap.Result), matched: q.Matched.Len(), report: report, result: compact.Bytes()}, nil
}

// client is one closed-loop SDK client with its own daemon session.
type client struct {
	c         *sdk.Client
	session   string
	answers   map[string]*serviceAnswer
	rng       *rand.Rand
	traceMode bool
}

type clientResult struct {
	jobs              []jobRecord
	attempted, failed int
	rejected          int64
	failures          []string
}

// eachClient runs phase(c) for every client at once, waits for all of them
// and returns how many jobs they completed together.
func eachClient(results []*clientResult, phase func(c int)) int {
	before := 0
	for _, r := range results {
		before += len(r.jobs)
	}
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phase(c)
		}()
	}
	wg.Wait()
	after := 0
	for _, r := range results {
		after += len(r.jobs)
	}
	return after - before
}

func (r *clientResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// pending is a completed pipeline job whose trace jobs are still to come.
type pending struct {
	scenario, job string
	traced        bool
}

// pipelines submits one pipeline job per scenario, in seeded order, and
// returns those that reproduced the library's answer. In a traced run each
// scenario's jobs are traced every other epoch.
func (cl *client) pipelines(ctx context.Context, r *clientResult, scs []workload.Scenario, epoch int) []pending {
	var out []pending
	for _, si := range cl.rng.Perm(len(scs)) {
		scenario := scs[si].Name
		traced := cl.traceMode && (si+epoch)%2 == 1
		want := cl.answers[scenario]
		r.attempted++
		pj, err := cl.run(ctx, r, sdk.SubmitJobRequest{Kind: sdk.KindPipeline, Scenario: factoryPrefix + scenario, SimGB: serviceGB}, traced)
		if err != nil {
			r.fail("%s pipeline: %v", scenario, err)
			continue
		}
		pj.scenario = scenario
		if pj.info.ResultRows != want.resultRows || pj.info.ProvBytes != want.streamBytes {
			r.fail("%s pipeline: %d rows, %d provenance bytes; library: %d rows, %d bytes",
				scenario, pj.info.ResultRows, pj.info.ProvBytes, want.resultRows, want.streamBytes)
			continue
		}
		r.jobs = append(r.jobs, *pj)
		out = append(out, pending{scenario: scenario, job: pj.info.ID, traced: traced})
	}
	return out
}

// traces submits traceJobs trace jobs against each pending pipeline job, in
// the order the pipeline jobs ran, and checks every result.
func (cl *client) traces(ctx context.Context, r *clientResult, ps []pending) {
	for _, p := range ps {
		cl.traceAgainst(ctx, r, p)
	}
}

// traceAgainst submits traceJobs trace jobs against one pipeline job.
func (cl *client) traceAgainst(ctx context.Context, r *clientResult, p pending) {
	scenario, want := p.scenario, cl.answers[p.scenario]
	for k := 0; k < traceJobs; k++ {
		r.attempted++
		tj, err := cl.run(ctx, r, sdk.SubmitJobRequest{Kind: sdk.KindTrace, TargetJob: p.job, Pattern: want.pattern}, p.traced)
		if err != nil {
			r.fail("%s trace: %v", scenario, err)
			continue
		}
		tj.scenario = scenario
		out, err := cl.c.TraceResult(ctx, cl.session, tj.info.ID)
		tj.requests++
		if err != nil {
			r.fail("%s trace result: %v", scenario, err)
			continue
		}
		var got bytes.Buffer
		if err := json.Compact(&got, out.Result); err != nil || out.Matched != want.matched ||
			out.Report != want.report || !bytes.Equal(got.Bytes(), want.result) {
			r.fail("%s trace: result differs from the library's", scenario)
			continue
		}
		r.jobs = append(r.jobs, *tj)
	}
}

// run submits one job, follows its event stream to the terminal status and
// fetches its final state. A queue-full refusal is an error.
func (cl *client) run(ctx context.Context, r *clientResult, req sdk.SubmitJobRequest, traced bool) (*jobRecord, error) {
	j := &jobRecord{kind: req.Kind, traced: traced, submit: time.Now()}
	info, err := cl.c.SubmitJob(ctx, cl.session, req)
	j.requests++
	if err != nil {
		if ae, full := sdk.IsQueueFull(err); full {
			r.rejected++
			time.Sleep(ae.RetryAfter)
			return nil, fmt.Errorf("refused: %w", err)
		}
		return nil, err
	}
	// The stream ends right after the terminal status event; its arrival
	// is when the client learns the job is done.
	err = cl.c.StreamEvents(ctx, cl.session, info.ID, func(ev sdk.JobEvent) error {
		if traced {
			j.events = append(j.events, ev)
		}
		if ev.Kind == "status" && sdk.TerminalStatus(ev.Status) && j.terminal.IsZero() {
			j.terminal = time.Now()
		}
		return nil
	})
	j.requests++
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if j.terminal.IsZero() {
		return nil, fmt.Errorf("event stream of job %s ended without a terminal status", info.ID)
	}
	j.latency = j.terminal.Sub(j.submit).Seconds()
	j.info, err = cl.c.GetJob(ctx, cl.session, info.ID)
	j.requests++
	if err != nil {
		return nil, fmt.Errorf("get job: %w", err)
	}
	if j.info.Status != sdk.StatusDone {
		return nil, fmt.Errorf("job %s %s: %s", j.info.ID, j.info.Status, j.info.Error)
	}
	return j, nil
}

// traceJob records a job's spans: the client-observed job (layer sdk), the
// server's queue wait and run from the job's timestamps, and the program's
// phase events nested under the run by containment. A job's class is its
// kind and scenario; a pass holds one pipeline job and traceJobs trace jobs
// per scenario.
func traceJob(tr *tracer, op int64, j jobRecord) {
	if j.kind == sdk.KindPipeline {
		tr.loopOp(op, "pipeline/"+j.scenario, 1)
		tr.count(op, "provenance.stream_bytes", float64(j.info.ProvBytes))
	} else {
		tr.loopOp(op, "trace/"+j.scenario, traceJobs)
		tr.count(op, "treepattern.matched_items", float64(j.info.Matched))
	}
	tr.count(op, "sdk.requests", float64(j.requests))
	root := tr.add("sdk.job", op, -1, j.submit, j.terminal)
	if j.info.Started == nil || j.info.Finished == nil {
		return
	}
	tr.add("server.queue_wait", op, root, j.info.Created, *j.info.Started)
	run := tr.add("server.run", op, root, *j.info.Started, *j.info.Finished)
	type phase struct {
		name       string
		start, end time.Time
	}
	var phases []phase
	var open []phase
	for _, ev := range j.events {
		name, ok := obsSpanNames[ev.Span]
		if !ok {
			continue
		}
		if name == "backtrace.index_build" && j.kind == sdk.KindTrace {
			name = "backtrace.index_load"
		}
		switch ev.Kind {
		case "phase_start":
			open = append(open, phase{name: name, start: ev.Time})
		case "phase_end":
			if n := len(open); n > 0 {
				p := open[n-1]
				open = open[:n-1]
				p.end = ev.Time
				phases = append(phases, p)
			}
		}
	}
	sort.Slice(phases, func(a, b int) bool { return phases[a].start.Before(phases[b].start) })
	type added struct {
		id  int32
		end time.Time
	}
	stack := []added{{run, *j.info.Finished}}
	for _, p := range phases {
		for len(stack) > 1 && !p.start.Before(stack[len(stack)-1].end) {
			stack = stack[:len(stack)-1]
		}
		id := tr.add(p.name, op, stack[len(stack)-1].id, p.start, p.end)
		stack = append(stack, added{id, p.end})
	}
}
