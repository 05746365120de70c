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

// queryGB is the query workload's input size in simulated GB.
const queryGB = 4

// stageItems is how many output items of an intermediate operator a stage
// question traces.
const stageItems = 16

// queryScenario is one scenario captured in set-up: the result stays in
// memory, the provenance is held both in memory and as persisted bytes.
type queryScenario struct {
	sc      workload.Scenario
	pipe    *engine.Pipeline
	res     *engine.Result
	run     *provenance.Run
	stream  []byte
	sidecar []byte
	rows    int64
	rec     *obs.Recorder
	warm    *core.Captured // untraced questions
	warmRec *core.Captured // traced questions (recorder attached)
}

// question is one class of provenance question: a scenario's Tab. 7
// pattern from the sink, or the lineage of a few items of a seeded
// intermediate operator.
type question struct {
	name  string
	qs    *queryScenario
	stage *provenance.Operator // nil: the pattern from the sink
	b     *backtrace.Structure // stage questions: the items asked about
	want  string               // renderTraced of the answer
}

// runQuery is the query workload (Fig. 9): set-up captures all ten
// scenarios once; a closed loop with one client then asks a seeded stream
// of questions, three in four warm (indexes reused across questions), the
// rest cold (lazy reload plus sidecar, the daemon's trace-job path).
func runQuery(cfg config) (*report, error) {
	rep := newReport()
	scs := workload.AllScenarios()
	tp := (*tap)(nil)
	if cfg.tr != nil {
		tp = &tap{t: cfg.tr}
	}
	var in *inputs
	var state []*queryScenario
	for rep.moreSetup() {
		state, in = nil, nil
		settle()
		t0, c0 := time.Now(), cpuNow()
		root := cfg.tr.begin("bench.setup", opSetup, -1, true)
		in = generate(cfg, queryGB, root)
		for _, sc := range scs {
			qs := &queryScenario{sc: sc, pipe: sc.Build(), rec: newRecorder(tp)}
			sess := core.NewSession(core.WithWorkers(cfg.Workers), core.WithRecorder(qs.rec))
			done := enter(cfg.tr, tp, "provenance.capture", opSetup, root)
			cap, err := sess.Capture(qs.pipe, in.datasets(sc, 0))
			done()
			if err != nil {
				return nil, fmt.Errorf("%s capture: %w", sc.Name, err)
			}
			p, err := persist(cfg.tr, opSetup, root, cap)
			if err != nil {
				return nil, fmt.Errorf("%s persist: %w", sc.Name, err)
			}
			qs.res, qs.run, qs.stream, qs.sidecar = cap.Result, cap.Provenance, p.stream, p.sidecar
			qs.rows = sourceRows(cap.Result)
			countResult(cfg.tr, opSetup, cap.Result)
			countRecorder(cfg.tr, opSetup, qs.rec, nil)
			state = append(state, qs)
		}
		cfg.tr.end(root)
		rep.setupDone(t0, c0)
	}

	var passRows, passBytes int64
	for _, qs := range state {
		passRows += qs.rows
		passBytes += int64(len(qs.stream))
		qs.warm = core.Reattached(qs.pipe, qs.res, qs.run, nil, nil)
		qs.warmRec = core.Reattached(qs.pipe, qs.res, qs.run, nil, qs.rec)
	}
	rep.Bytes = float64(passBytes) / float64(passRows)

	// The question classes and their answers: warm, cold and eager must
	// agree on traced items and report. Asking each once also builds the
	// warm tracers' indexes before the loop.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var qs []*question
	root := cfg.tr.begin("bench.answers", opAnswers, -1, true)
	for _, s := range state {
		stage, b, err := stageQuestion(s.run, s.pipe.Sink().ID(), rng, stageItems)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.sc.Name, err)
		}
		for _, q := range []*question{
			{name: s.sc.Name + "/sink", qs: s},
			{name: fmt.Sprintf("%s/op%d", s.sc.Name, stage.OID), qs: s, stage: stage, b: b},
		} {
			rep.Attempted++
			if err := q.answer(cfg, tp, root); err != nil {
				rep.fail("%s: %v", q.name, err)
			}
			qs = append(qs, q)
		}
	}
	cfg.tr.end(root)

	warmBy := map[string][]float64{}
	coldBy := map[string][]float64{}
	var warmAll, coldAll []float64
	phase := rng.Intn(4)
	var op int64
	deadline := time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
	// Ten rounds take about a second of CPU.
	win := rssWindows{steps: 10}
	win.begin()
	for round := 0; time.Now().Before(deadline); round++ {
		win.tick(rep)
		// Whole rounds only; every fourth round asks each question cold.
		cold := (round+phase)%4 == 3
		kind, weight := "warm", 0.75
		if cold {
			kind, weight = "cold", 0.25
		}
		for _, qi := range rng.Perm(len(qs)) {
			q := qs[qi]
			op++
			// In a traced run each question is traced every other round,
			// shifted by one every four rounds so that its cold rounds too
			// alternate between traced and untraced.
			isTraced := cfg.tr != nil && (qi+round+round/4)%2 == 1
			c := config{Workers: cfg.Workers}
			var optp *tap
			if isTraced {
				c.tr, optp = cfg.tr, tp
				c.tr.loopOp(op, q.name+"/"+kind, weight)
			}
			b := cloneOrNil(q.b)
			opRoot := c.tr.begin("bench.op", op, -1, true)
			c0, t0 := cpuNow(), time.Now()
			res, err := q.ask(c, optp, op, opRoot, cold, b)
			lat, cpu := since(t0), cpuNow()-c0
			c.tr.end(opRoot)
			rep.Attempted++
			rep.Loop.Rows += q.qs.rows
			if err != nil {
				rep.fail("%s: %v", q.name, err)
				continue
			}
			countQuery(c.tr, op, res)
			if got := renderTraced(res); got != q.want {
				rep.fail("%s: answer differs from set-up", q.name)
				continue
			}
			rep.Ops++
			rep.CPU += cpu
			if isTraced {
				if !cold {
					rep.TracedMain[q.name] = append(rep.TracedMain[q.name], lat)
				}
				continue
			}
			if cold {
				coldBy[q.name] = append(coldBy[q.name], lat)
				rep.AltCPU[q.name] = append(rep.AltCPU[q.name], cpu)
				coldAll = append(coldAll, lat)
			} else {
				warmBy[q.name] = append(warmBy[q.name], lat)
				rep.MainCPU[q.name] = append(rep.MainCPU[q.name], cpu)
				warmAll = append(warmAll, lat)
			}
		}
	}
	win.end(rep)
	rep.Main, rep.Alt = warmBy, coldBy

	tailV, pct := tail(warmAll)
	rep.Named = []named{
		{Name: "query_p50_s", Value: median(warmAll), Unit: "s", Samples: len(warmAll)},
		{Name: "query_tail_s", Value: tailV, Unit: "s", Samples: len(warmAll), Percentile: pct},
		{Name: "reload_query_p50_s", Value: median(coldAll), Unit: "s", Samples: len(coldAll)},
	}
	rep.Settings = map[string]any{
		"sim_gb": queryGB, "engine_workers": cfg.Workers, "clients": 1,
		"input_rows": in.rows(), "question_classes": len(qs), "stage_items": stageItems,
	}
	return rep, nil
}

// ask answers the question once, warm or cold.
func (q *question) ask(cfg config, tp *tap, op int64, parent int32, cold bool, b *backtrace.Structure) (*core.QueryResult, error) {
	tr := cfg.tr
	s := q.qs
	var cap *core.Captured
	var run *provenance.Run
	if cold {
		id := tr.begin("provenance.lazy_load", op, parent, true)
		r, err := provenance.ReadRunLazy(s.stream)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("reload: %w", err)
		}
		run = r
		t := backtrace.NewTracer(run)
		id = tr.begin("backtrace.index_load", op, parent, true)
		err = t.LoadIndexes(s.sidecar)
		tr.end(id)
		if err != nil {
			// A rejected sidecar is never a wrong answer: the tracer
			// rebuilds the indexes from the run, which the answer check and
			// the reject count show.
			tr.count(op, "backtrace.sidecar_rejects", 1)
		}
		rec := (*obs.Recorder)(nil)
		if tr != nil {
			rec = s.rec
		}
		cap = core.Reattached(s.pipe, s.res, run, t, rec)
		tp.setIndexName("backtrace.index_load")
		defer tp.setIndexName("")
	} else {
		cap = s.warm
		if tr != nil {
			cap = s.warmRec
		}
	}
	done := enter(tr, tp, "core.query", op, parent)
	defer done()
	var res *core.QueryResult
	var err error
	if q.stage == nil {
		res, err = cap.Query(s.sc.Pattern)
	} else {
		op := q.stage
		if cold {
			o, ok := run.OpByID(q.stage.ID())
			if !ok {
				return nil, fmt.Errorf("operator %d missing from reloaded run", q.stage.OID)
			}
			op = o
		}
		res, err = cap.TraceAt(op, b)
	}
	if err == nil && cold {
		countDecoded(tr, op, run)
	}
	return res, err
}

// answer fixes the expected answer of the question and checks that the
// warm, cold and eager (ReadRun) paths give the same traced items and
// report.
func (q *question) answer(cfg config, tp *tap, parent int32) error {
	s := q.qs
	ask := func(cap *core.Captured, run *provenance.Run) (*core.QueryResult, error) {
		defer enter(cfg.tr, tp, "core.query", opAnswers, parent)()
		if q.stage == nil {
			return cap.Query(s.sc.Pattern)
		}
		op, ok := run.OpByID(q.stage.ID())
		if !ok {
			return nil, fmt.Errorf("operator %d missing", q.stage.OID)
		}
		return cap.TraceAt(op, q.b.Clone())
	}
	warmCap := s.warm
	if cfg.tr != nil {
		warmCap = s.warmRec
	}
	warm, err := ask(warmCap, s.run)
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	if cfg.tr != nil {
		// Build the untraced twin's indexes too, so both start warm.
		if _, err := ask(s.warm, s.run); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	cold, err := q.ask(cfg, tp, opAnswers, parent, true, cloneOrNil(q.b))
	if err != nil {
		return fmt.Errorf("cold: %w", err)
	}
	eagerRun, err := provenance.ReadRun(bytes.NewReader(s.stream))
	if err != nil {
		return fmt.Errorf("eager reload: %w", err)
	}
	eager, err := ask(core.Reattached(s.pipe, s.res, eagerRun, nil, nil), eagerRun)
	if err != nil {
		return fmt.Errorf("eager: %w", err)
	}
	id := cfg.tr.begin("core.render", opAnswers, parent, true)
	reports := []string{warm.Report(), cold.Report(), eager.Report()}
	cfg.tr.end(id)
	countQuery(cfg.tr, opAnswers, warm)
	q.want = renderTraced(warm)
	if renderTraced(cold) != q.want || renderTraced(eager) != q.want {
		return fmt.Errorf("warm, cold and eager traces differ")
	}
	if reports[1] != reports[0] || reports[2] != reports[0] {
		return fmt.Errorf("warm, cold and eager reports differ")
	}
	if tracedItems(warm) == 0 {
		return fmt.Errorf("question traced no input items")
	}
	return nil
}

func cloneOrNil(b *backtrace.Structure) *backtrace.Structure {
	if b == nil {
		return nil
	}
	return b.Clone()
}
