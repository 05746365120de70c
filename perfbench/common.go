package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"pebble/internal/backtrace"
	"pebble/internal/core"
	"pebble/internal/engine"
	"pebble/internal/nested"
	"pebble/internal/obs"
	"pebble/internal/provenance"
	"pebble/internal/workload"
)

// Span operation ids outside the measured loop; loop operations count up
// from 1.
const (
	opSetup   int64 = -1
	opAnswers int64 = -2
)

// inputs are the generated Twitter and DBLP items at one seeded scale.
type inputs struct {
	scale   workload.Scale
	twitter []nested.Value
	dblp    []nested.Value
}

// scaleFor is the seeded calibration at simGB simulated gigabytes.
func scaleFor(simGB int, seed int64) workload.Scale {
	s := workload.DefaultScale(simGB)
	s.Seed = seed
	return s
}

// generate produces both datasets; traced as one workload.gen span.
func generate(cfg config, simGB int, parent int32) *inputs {
	id := cfg.tr.begin("workload.gen", opSetup, parent, true)
	in := &inputs{scale: scaleFor(simGB, cfg.Seed)}
	in.twitter = workload.GenerateTwitter(in.scale)
	in.dblp = workload.GenerateDBLP(in.scale)
	cfg.tr.end(id)
	cfg.tr.count(opSetup, "workload.rows", float64(in.rows()))
	return in
}

func (in *inputs) rows() int { return len(in.twitter) + len(in.dblp) }

// datasets wraps the generated items as the named input sc reads, the way
// workload.Scenario.Input does, without generating them again; parts <= 0
// is the engine default, which a default session also uses.
func (in *inputs) datasets(sc workload.Scenario, parts int) map[string]*engine.Dataset {
	if parts <= 0 {
		parts = engine.DefaultPartitions
	}
	if sc.Dataset == "twitter" {
		return map[string]*engine.Dataset{"tweets.json": engine.NewDataset("tweets.json", in.twitter, parts, engine.NewIDGen(1))}
	}
	return map[string]*engine.Dataset{"dblp.json": engine.NewDataset("dblp.json", in.dblp, parts, engine.NewIDGen(1))}
}

// sourceRows is the number of input rows the source operators of a run
// read (a dataset read twice counts twice).
func sourceRows(res *engine.Result) int64 {
	var n int64
	for _, st := range res.Stats {
		if st.Type == engine.OpSource {
			n += int64(st.Rows)
		}
	}
	return n
}

// sameOutput reports whether two executions produced the same sink rows:
// identifiers and values, in order.
func sameOutput(a, b *engine.Result) bool {
	ra, rb := a.Output.Rows(), b.Output.Rows()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i].ID != rb[i].ID || !nested.Equal(ra[i].Value, rb[i].Value) {
			return false
		}
	}
	return true
}

// renderTraced renders the traced input items of a query deterministically:
// sources in ascending operator order, items by identifier, with their
// backtracing trees.
func renderTraced(q *core.QueryResult) string {
	oids := make([]int, 0, len(q.Traced.BySource))
	for oid := range q.Traced.BySource {
		oids = append(oids, oid)
	}
	sort.Ints(oids)
	var sb strings.Builder
	fmt.Fprintf(&sb, "matched %d\n", q.Matched.Len())
	for _, oid := range oids {
		fmt.Fprintf(&sb, "source %d\n%s", oid, q.Traced.BySource[oid].String())
	}
	return sb.String()
}

func tracedItems(q *core.QueryResult) int {
	n := 0
	for _, s := range q.Traced.BySource {
		n += s.Len()
	}
	return n
}

// countResult adds the engine's execution time per operator type in res to
// op's figures.
func countResult(tr *tracer, op int64, res *engine.Result) {
	if tr == nil || res == nil {
		return
	}
	for _, st := range res.Stats {
		tr.count(op, "engine."+string(st.Type)+"_s", st.Elapsed.Seconds())
	}
}

// recorderCounters are the program's per-operator counters the benchmark
// reports, under their metric names.
var recorderCounters = []struct {
	name string
	c    obs.Counter
}{
	{"engine.rows_in", obs.RowsIn},
	{"engine.rows_out", obs.RowsOut},
	{"engine.expr_evals", obs.ExprEvals},
	{"engine.keys_hashed", obs.KeysHashed},
	{"provenance.assoc_rows", obs.AssocRows},
}

// countRecorder adds to op's figures what rec counted since it read before
// (nil: since rec was made), and returns rec's totals now.
func countRecorder(tr *tracer, op int64, rec *obs.Recorder, before []int64) []int64 {
	if tr == nil || rec == nil {
		return before
	}
	st := rec.Snapshot()
	now := make([]int64, len(recorderCounters))
	for i, c := range recorderCounters {
		now[i] = st.Total(c.c)
		prev := int64(0)
		if before != nil {
			prev = before[i]
		}
		tr.count(op, c.name, float64(now[i]-prev))
	}
	return now
}

// countQuery adds a question's matched and traced items to op's figures.
func countQuery(tr *tracer, op int64, q *core.QueryResult) {
	tr.count(op, "treepattern.matched_items", float64(q.Matched.Len()))
	tr.count(op, "backtrace.traced_items", float64(tracedItems(q)))
}

// stageQuestion is a provenance question asked of an intermediate operator:
// the lineage of k of its output items, chosen at a seeded offset. The
// items are asked about with empty trees, which an aggregate passes to none
// of its group members; operators, seeded order, are tried until one's
// question traces some input item.
func stageQuestion(run *provenance.Run, sinkOID int, rng *rand.Rand, k int) (*provenance.Operator, *backtrace.Structure, error) {
	var cands []*provenance.Operator
	for _, op := range run.Operators() {
		if op.Type != engine.OpSource && op.OID != sinkOID && len(outputIDs(op)) > 0 {
			cands = append(cands, op)
		}
	}
	for _, i := range rng.Perm(len(cands)) {
		op := cands[i]
		ids := outputIDs(op)
		off := rng.Intn(len(ids))
		b := backtrace.NewStructure()
		for i := 0; i < k && i < len(ids); i++ {
			b.Add(ids[(off+i)%len(ids)], backtrace.NewTree())
		}
		res, err := backtrace.NewTracer(run).Trace(op.OID, b.Clone())
		if err != nil {
			return nil, nil, fmt.Errorf("operator %d: %w", op.OID, err)
		}
		for _, s := range res.BySource {
			if s.Len() > 0 {
				return op, b, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("no intermediate operator whose items trace to an input")
}

// outputIDs lists the distinct output identifiers of an operator's captured
// associations, ascending.
func outputIDs(op *provenance.Operator) []int64 {
	seen := map[int64]bool{}
	var out []int64
	add := func(id int64) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	switch op.AssocKind() {
	case provenance.AssocUnary:
		for _, a := range op.UnaryAssocs() {
			add(a.Out)
		}
	case provenance.AssocBinary:
		for _, a := range op.BinaryAssocs() {
			add(a.Out)
		}
	case provenance.AssocFlatten:
		for _, a := range op.FlattenAssocs() {
			add(a.Out)
		}
	case provenance.AssocAgg:
		for _, a := range op.AggAssocs() {
			add(a.Out)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// newRecorder returns a recorder feeding tp, or nil in an untraced run.
func newRecorder(tp *tap) *obs.Recorder {
	if tp == nil {
		return nil
	}
	rec := obs.NewRecorder()
	tp.attach(rec)
	return rec
}

// enter opens a span around a call into a layer and points the tap at it,
// so the phases the program's recorder reports nest under the call. The
// returned function closes the span.
func enter(tr *tracer, tp *tap, name string, op int64, parent int32) func() {
	id := tr.begin(name, op, parent, true)
	tp.setParent(op, id)
	return func() {
		tr.end(id)
		tp.setParent(op, parent)
	}
}

// settle collects the garbage of earlier phases, so that set-up repetitions
// and the measured loop start from the same heap and the peak RSS does not
// depend on when a collection happened to run.
func settle() { runtime.GC() }

// since is the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
