package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/obs"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// captureGB is the capture workload's input size in simulated GB.
const captureGB = 6

// captureAnswer is what set-up establishes for one scenario: the plain
// result every later run must reproduce, and the persisted stream and index
// sidecar every later capture must reproduce byte for byte.
type captureAnswer struct {
	plain   *engine.Result
	stream  []byte
	sidecar []byte
	rows    int64
}

// runCapture is the capture workload (Figs. 6-8): a closed loop with one
// client; each operation runs one Tab. 7 scenario plain and through the
// traceable, persisted capture path, alternating which goes first.
func runCapture(cfg config) (*report, error) {
	rep := newReport()
	var in *inputs
	for rep.moreSetup() {
		in = nil
		settle()
		t0, c0 := time.Now(), cpuNow()
		root := cfg.tr.begin("bench.setup", opSetup, -1, true)
		in = generate(cfg, captureGB, root)
		cfg.tr.end(root)
		rep.setupDone(t0, c0)
	}
	scs := workload.AllScenarios()
	tp := (*tap)(nil)
	if cfg.tr != nil {
		tp = &tap{t: cfg.tr}
	}
	plainSess := core.NewSession(core.WithWorkers(cfg.Workers))
	recs := make([]*obs.Recorder, len(scs))
	traced := make([]core.Session, len(scs))
	for i := range scs {
		recs[i] = newRecorder(tp)
		traced[i] = core.NewSession(core.WithWorkers(cfg.Workers), core.WithRecorder(recs[i]))
	}
	// The recorders' totals as last counted, per scenario.
	recTotals := make([][]int64, len(scs))

	// Answers: the plain result, the persisted bytes, and a check that the
	// persisted run answers the scenario's question like the in-memory one.
	answers := make([]captureAnswer, len(scs))
	root := cfg.tr.begin("bench.answers", opAnswers, -1, true)
	for i, sc := range scs {
		sess := plainSess
		if cfg.tr != nil {
			sess = traced[i]
		}
		done := enter(cfg.tr, tp, "engine.run", opAnswers, root)
		plain, err := sess.Run(sc.Build(), in.datasets(sc, 0))
		done()
		if err != nil {
			return nil, fmt.Errorf("%s plain: %w", sc.Name, err)
		}
		done = enter(cfg.tr, tp, "provenance.capture", opAnswers, root)
		cap, err := sess.Capture(sc.Build(), in.datasets(sc, 0))
		done()
		if err != nil {
			return nil, fmt.Errorf("%s capture: %w", sc.Name, err)
		}
		countResult(cfg.tr, opAnswers, plain)
		countResult(cfg.tr, opAnswers, cap.Result)
		p, err := persist(cfg.tr, opAnswers, root, cap)
		if err != nil {
			return nil, fmt.Errorf("%s persist: %w", sc.Name, err)
		}
		answers[i] = captureAnswer{plain: plain, stream: p.stream, sidecar: p.sidecar, rows: sourceRows(plain)}
		rep.Attempted++
		if !sameOutput(plain, cap.Result) {
			rep.fail("%s: captured result differs from plain result", sc.Name)
			continue
		}
		if err := checkTraceable(cfg, tp, root, sc, cap, p, recs[i]); err != nil {
			rep.fail("%s: %v", sc.Name, err)
		}
	}
	cfg.tr.end(root)
	for i := range scs {
		recTotals[i] = countRecorder(cfg.tr, opAnswers, recs[i], nil)
	}

	var passRows, passBytes int64
	for _, a := range answers {
		passRows += a.rows
		passBytes += int64(len(a.stream))
	}
	rep.Bytes = float64(passBytes) / float64(passRows)

	rng := rand.New(rand.NewSource(cfg.Seed))
	phase := rng.Intn(2)
	var op int64
	plainBy := map[string][]float64{}
	capBy := map[string][]float64{}
	var capAll []float64
	deadline := time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
	// One stretch per pass, so that each holds every scenario once.
	win := rssWindows{steps: len(scs)}
	win.begin()
	for pass := 0; time.Now().Before(deadline); pass++ {
		// Whole passes only: every scenario gets the same number of samples.
		for _, si := range rng.Perm(len(scs)) {
			sc, want := scs[si], answers[si]
			win.tick(rep)
			op++
			// In a traced run each scenario is traced every other pass, and
			// runs plain first in two passes out of four, so that traced and
			// untraced operations both run half in each order.
			isTraced := cfg.tr != nil && (si+pass)%2 == 1
			plainFirst := (si+pass/2+phase)%2 == 0
			sess, optp, tr := plainSess, (*tap)(nil), (*tracer)(nil)
			if isTraced {
				sess, optp, tr = traced[si], tp, cfg.tr
				tr.loopOp(op, sc.Name, 1)
			}
			plainPipe, capPipe := sc.Build(), sc.Build()
			plainIn, capIn := in.datasets(sc, 0), in.datasets(sc, 0)

			opRoot := tr.begin("bench.op", op, -1, true)
			var plain *engine.Result
			var cap *core.Captured
			var pers persisted
			var plainT, capT, capCall, plainC, capC float64
			var plainErr, capErr error
			runPlain := func() {
				done := enter(tr, optp, "engine.run", op, opRoot)
				c0, t0 := cpuNow(), time.Now()
				plain, plainErr = sess.Run(plainPipe, plainIn)
				plainT, plainC = since(t0), cpuNow()-c0
				done()
			}
			runCapture := func() {
				c0, t0 := cpuNow(), time.Now()
				done := enter(tr, optp, "provenance.capture", op, opRoot)
				cap, capErr = sess.Capture(capPipe, capIn)
				done()
				capCall = since(t0)
				if capErr == nil {
					pers, capErr = persist(tr, op, opRoot, cap)
				}
				capT, capC = since(t0), cpuNow()-c0
			}
			if plainFirst {
				runPlain()
				runCapture()
			} else {
				runCapture()
				runPlain()
			}
			tr.end(opRoot)
			if isTraced {
				// Capture minus plain on the same scenario, paired.
				tr.count(op, "provenance.capture_extra_s", capCall-plainT)
				countResult(tr, op, plain)
				if cap != nil {
					countResult(tr, op, cap.Result)
				}
				recTotals[si] = countRecorder(tr, op, recs[si], recTotals[si])
			}

			rep.Attempted++
			rep.Loop.Rows += 2 * want.rows
			switch {
			case plainErr != nil:
				rep.fail("%s plain: %v", sc.Name, plainErr)
				continue
			case capErr != nil:
				rep.fail("%s capture: %v", sc.Name, capErr)
				continue
			case !sameOutput(want.plain, plain):
				rep.fail("%s: plain result differs from set-up", sc.Name)
				continue
			case !sameOutput(want.plain, cap.Result):
				rep.fail("%s: captured result differs from plain result", sc.Name)
				continue
			case !bytes.Equal(want.stream, pers.stream) || !bytes.Equal(want.sidecar, pers.sidecar):
				rep.fail("%s: persisted provenance differs from set-up", sc.Name)
				continue
			}
			rep.Ops++
			rep.CPU += plainC + capC
			if isTraced {
				rep.TracedMain[sc.Name] = append(rep.TracedMain[sc.Name], capT)
				continue
			}
			capBy[sc.Name] = append(capBy[sc.Name], capT)
			plainBy[sc.Name] = append(plainBy[sc.Name], plainT)
			rep.MainCPU[sc.Name] = append(rep.MainCPU[sc.Name], capC)
			rep.AltCPU[sc.Name] = append(rep.AltCPU[sc.Name], plainC)
			capAll = append(capAll, capT)
		}
	}
	win.end(rep)
	rep.Main, rep.Alt = capBy, plainBy

	plainSum, capSum := 0.0, 0.0
	for _, sc := range scs {
		plainSum += median(plainBy[sc.Name])
		capSum += median(capBy[sc.Name])
	}
	tailV, pct := tail(capAll)
	rep.Named = []named{
		{Name: "plain_rows_per_s", Value: float64(passRows) / plainSum, Unit: "rows/s", Samples: countSamples(plainBy)},
		{Name: "capture_rows_per_s", Value: float64(passRows) / capSum, Unit: "rows/s", Samples: countSamples(capBy)},
		{Name: "prov_bytes_per_row", Value: rep.Bytes, Unit: "B/row", Samples: len(scs)},
		{Name: "capture_tail_s", Value: tailV, Unit: "s", Samples: len(capAll), Percentile: pct},
	}
	rep.Settings = map[string]any{
		"sim_gb": captureGB, "engine_workers": cfg.Workers, "clients": 1,
		"input_rows": in.rows(), "pass_rows": passRows, "scenarios": len(scs),
	}
	return rep, nil
}

// persisted is the capture path's output: the encoded provenance stream and
// the index sidecar built over its lazy reload.
type persisted struct {
	stream, sidecar []byte
}

// persist runs the part of the capture path after Session.Capture:
// Run.WriteTo, provenance.ReadRunLazy and Tracer.WriteIndexes.
func persist(tr *tracer, op int64, parent int32, cap *core.Captured) (persisted, error) {
	var stream bytes.Buffer
	id := tr.begin("provenance.encode", op, parent, true)
	_, err := cap.Provenance.WriteTo(&stream)
	tr.end(id)
	if err != nil {
		return persisted{}, fmt.Errorf("encode: %w", err)
	}
	id = tr.begin("provenance.lazy_load", op, parent, true)
	run, err := provenance.ReadRunLazy(stream.Bytes())
	tr.end(id)
	if err != nil {
		return persisted{}, fmt.Errorf("lazy reload: %w", err)
	}
	var sidecar bytes.Buffer
	id = tr.begin("backtrace.index_build", op, parent, true)
	_, err = backtrace.NewTracer(run).WriteIndexes(&sidecar)
	tr.end(id)
	if err != nil {
		return persisted{}, fmt.Errorf("index sidecar: %w", err)
	}
	tr.count(op, "provenance.stream_bytes", float64(stream.Len()))
	tr.count(op, "backtrace.sidecar_bytes", float64(sidecar.Len()))
	countDecoded(tr, op, run)
	return persisted{stream: stream.Bytes(), sidecar: sidecar.Bytes()}, nil
}

// countDecoded adds the association bytes a lazily loaded run has decoded
// so far, and those it holds, to op's figures.
func countDecoded(tr *tracer, op int64, run *provenance.Run) {
	tr.count(op, "provenance.assoc_bytes_decoded", float64(run.AssocBytesDecoded()))
	tr.count(op, "provenance.assoc_bytes_total", float64(run.AssocBytesTotal()))
}

// checkTraceable asks the scenario's question of the in-memory capture and
// of its persisted form (lazy reload plus sidecar); both must give the same
// traced items and report.
func checkTraceable(cfg config, tp *tap, parent int32, sc workload.Scenario, cap *core.Captured, p persisted, rec *obs.Recorder) error {
	tr := cfg.tr
	done := enter(tr, tp, "core.query", opAnswers, parent)
	qMem, err := cap.Query(sc.Pattern)
	done()
	if err != nil {
		return fmt.Errorf("in-memory query: %w", err)
	}
	id := tr.begin("provenance.lazy_load", opAnswers, parent, true)
	run, err := provenance.ReadRunLazy(p.stream)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	t := backtrace.NewTracer(run)
	id = tr.begin("backtrace.index_load", opAnswers, parent, true)
	err = t.LoadIndexes(p.sidecar)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("sidecar rejected: %w", err)
	}
	reloaded := core.Reattached(cap.Pipeline, cap.Result, run, t, rec)
	tp.setIndexName("backtrace.index_load")
	done = enter(tr, tp, "core.query", opAnswers, parent)
	qDisk, err := reloaded.Query(sc.Pattern)
	done()
	tp.setIndexName("")
	if err != nil {
		return fmt.Errorf("reloaded query: %w", err)
	}
	countDecoded(tr, opAnswers, run)
	id = tr.begin("core.render", opAnswers, parent, true)
	memReport, diskReport := qMem.Report(), qDisk.Report()
	tr.end(id)
	countQuery(tr, opAnswers, qMem)
	countQuery(tr, opAnswers, qDisk)
	if renderTraced(qMem) != renderTraced(qDisk) || memReport != diskReport {
		return fmt.Errorf("persisted run answers differently from the in-memory capture")
	}
	return nil
}
