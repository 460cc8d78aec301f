package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/callgraph"
	"repro/internal/interp"
	"repro/internal/locality"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/smt"
	"repro/internal/summary"
	"repro/internal/translate"
	"repro/internal/uchecker"
	"repro/internal/vulnmodel"
)

// The driver re-runs Scanner.Scan's pipeline one public layer call at a
// time, on one goroutine, and records a span around every call. Driver
// calls never nest, so each layer span is that layer's self time; the
// per-app "app" span that parents them holds only the driver's own
// bookkeeping. It supports the configurations the workloads use: tree
// engine, inline or summary interprocedural mode, default budgets and
// extensions, one ladder retry, no admin-gating model.

// Layer span names.
const (
	spanParse          = "phpparser"
	spanSummaryLocal   = "summary.local"
	spanSummaryCompose = "summary.compose"
	spanCallgraph      = "callgraph"
	spanLocality       = "locality"
	spanInterp         = "interp"
	spanModel          = "vulnmodel"
	spanSMT            = "smt"
	spanBaseline       = "baseline"
)

// allocAttr is the span attribute holding the bytes the process
// allocated during the span.
const allocAttr = "alloc_bytes"

// layerCounts are the work counts the driver observes at the layer
// boundaries.
type layerCounts struct {
	verdicts                    int
	linesParsed                 int
	totalLoC, analyzedLoC       int
	roots                       int
	instantiated, escaped       int64 // summary call sites
	paths, pathsAvoided         int64
	budgetAborts                int
	modeled, tainted            int
	checks, sat, quick, unknown int
	retries                     int
}

type driver struct {
	ctx       context.Context
	rec       *obs.Recorder
	interproc interp.InterprocKind
	alloc     []metrics.Sample
	n         layerCounts
}

func newDriver(ctx context.Context, rec *obs.Recorder, mode interp.InterprocKind) *driver {
	return &driver{
		ctx:       ctx,
		rec:       rec,
		interproc: mode,
		alloc:     []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// allocBytes is the process's cumulative heap allocation. The driver
// runs on one goroutine, so deltas around a call are that call's.
func (d *driver) allocBytes() uint64 {
	metrics.Read(d.alloc)
	return d.alloc[0].Value.Uint64()
}

type layerSpan struct {
	a      *obs.ActiveSpan
	alloc0 uint64
}

func (d *driver) begin(parent obs.SpanID, name string) layerSpan {
	a := d.rec.Start(parent, name)
	return layerSpan{a: a, alloc0: d.allocBytes()}
}

func (d *driver) end(s layerSpan) {
	alloc := d.allocBytes() - s.alloc0
	s.a.End(obs.A(allocAttr, strconv.FormatUint(alloc, 10)))
}

// outcome is the part of an app's report the driver must reproduce
// exactly: verdict, paths, sink candidates, retries and the verified
// (non-degraded) findings with their witnesses.
type outcome struct {
	vulnerable bool
	paths      int
	sinks      int
	retries    int
	findings   []string
}

func findingKey(file string, line int, sink string, witness smt.Model) string {
	return fmt.Sprintf("%s:%d %s %v", file, line, sink, witness)
}

// outcomeOf extracts the comparable outcome of a scanner report.
func outcomeOf(rep *uchecker.AppReport) outcome {
	o := outcome{vulnerable: rep.Vulnerable, paths: rep.Paths, sinks: rep.SinkCount, retries: rep.Retries}
	for _, f := range rep.Findings {
		if !f.Degraded {
			o.findings = append(o.findings, findingKey(f.File, f.Line, f.Sink, f.Witness))
		}
	}
	sort.Strings(o.findings)
	return o
}

// diff describes how o differs from want, or returns "" when equal.
func (o outcome) diff(want outcome) string {
	var d []string
	if o.vulnerable != want.vulnerable {
		d = append(d, fmt.Sprintf("verdict %v vs %v", o.vulnerable, want.vulnerable))
	}
	if o.paths != want.paths {
		d = append(d, fmt.Sprintf("paths %d vs %d", o.paths, want.paths))
	}
	if o.sinks != want.sinks {
		d = append(d, fmt.Sprintf("sinks %d vs %d", o.sinks, want.sinks))
	}
	if o.retries != want.retries {
		d = append(d, fmt.Sprintf("retries %d vs %d", o.retries, want.retries))
	}
	if strings.Join(o.findings, "\n") != strings.Join(want.findings, "\n") {
		d = append(d, fmt.Sprintf("findings %q vs %q", o.findings, want.findings))
	}
	return strings.Join(d, "; ")
}

// app drives one app through every layer and returns its outcome.
func (d *driver) app(it item) outcome {
	appSpan := d.rec.Start(0, "app", obs.A("app", it.name))
	defer appSpan.End()
	id := appSpan.ID()

	files := make([]*phpast.File, 0, len(it.sources))
	for _, name := range sortedNames(it.sources) {
		src := it.sources[name]
		sp := d.begin(id, spanParse)
		f, _ := phpparser.Parse(name, src)
		d.end(sp)
		d.n.linesParsed += strings.Count(src, "\n")
		if f != nil {
			files = append(files, f)
		}
	}
	engines := interp.NewEngineFactory(interp.EngineTree, files)

	var sums *summary.Set
	if d.interproc == interp.InterprocSummary {
		locals := make([]*summary.FileLocal, 0, len(files))
		for _, f := range files {
			sp := d.begin(id, spanSummaryLocal)
			locals = append(locals, summary.LocalFile(f))
			d.end(sp)
		}
		sp := d.begin(id, spanSummaryCompose)
		sums = summary.Compose(locals, smt.NewFactory())
		d.end(sp)
	}

	sp := d.begin(id, spanCallgraph)
	g := callgraph.Build(files)
	d.end(sp)
	sp = d.begin(id, spanLocality)
	loc := locality.Analyze(g, files, it.sources)
	d.end(sp)
	d.n.totalLoC += loc.TotalLoC
	d.n.analyzedLoC += loc.AnalyzedLoC
	d.n.roots += len(loc.Roots)

	var o outcome
	for _, root := range loc.Roots {
		r := d.root(id, engines, sums, files, root.Node)
		o.paths += r.paths
		o.sinks += r.sinks
		o.retries += r.retries
		if !r.degraded {
			o.findings = append(o.findings, r.findings...)
		}
	}
	sort.Strings(o.findings)
	o.vulnerable = len(o.findings) > 0
	d.n.verdicts++
	d.n.retries += o.retries
	return o
}

// rootOutcome is one root's result after the degradation ladder.
type rootOutcome struct {
	paths, sinks, retries int
	findings              []string
	// degraded marks findings from a halved-budget retry.
	degraded bool
}

// root runs the scanner's degradation ladder for one root: the full
// budgets, then one halved-budget retry for a retryable failure, then
// the taint-only fallback when no rung produced findings.
func (d *driver) root(parent obs.SpanID, engines *interp.EngineFactory, sums *summary.Set, files []*phpast.File, root *callgraph.Node) rootOutcome {
	var r rootOutcome
	var budgets uchecker.Budgets
	for attempt := 0; ; attempt++ {
		a := d.attempt(parent, engines, sums, root, budgets, attempt > 0)
		r.paths = max(r.paths, a.paths)
		r.sinks = max(r.sinks, a.sinks)
		r.findings = a.findings
		r.degraded = attempt > 0
		r.retries = attempt
		if !a.failed || len(a.findings) > 0 {
			return r
		}
		if a.retryable && attempt < uchecker.DefaultMaxRetries {
			budgets = budgets.Halve()
			continue
		}
		d.fallback(parent, root, files)
		return r
	}
}

type attemptOutcome struct {
	paths, sinks      int
	findings          []string
	failed, retryable bool
}

// attempt is one ladder rung: symbolic execution, then modeling and
// solving of every recorded sink. A budget abort on the first rung
// verifies nothing (the paper's semantics); a retry rung verifies the
// partial exploration.
func (d *driver) attempt(parent obs.SpanID, engines *interp.EngineFactory, sums *summary.Set, root *callgraph.Node, b uchecker.Budgets, degraded bool) attemptOutcome {
	iop := interp.Options{
		MaxPaths:     b.MaxPaths,
		MaxObjects:   b.MaxObjects,
		LoopUnroll:   b.LoopUnroll,
		MaxCallDepth: b.MaxCallDepth,
		Summaries:    sums,
	}
	sp := d.begin(parent, spanInterp)
	res := engines.New(iop).Run(d.ctx, root)
	d.end(sp)
	d.n.paths += int64(res.Paths)
	d.n.pathsAvoided += res.Stats.PathsAvoided
	d.n.instantiated += res.Stats.SummaryInstantiated
	d.n.escaped += res.Stats.SummaryEscapedCallees

	a := attemptOutcome{paths: res.Paths}
	if res.Err != nil {
		a.failed = true
		a.retryable = errors.Is(res.Err, interp.ErrBudgetExceeded)
		if a.retryable {
			d.n.budgetAborts++
		}
		if !degraded || !a.retryable {
			return a
		}
	}
	d.verify(parent, res, b, &a)
	return a
}

// verify models every sink hit and checks each tainted, not yet
// confirmed call site with the staged solver session: the extension
// constraint alone first, then with reachability.
func (d *driver) verify(parent obs.SpanID, res interp.Result, b uchecker.Budgets, a *attemptOutcome) {
	fac := smt.NewFactory()
	solver := smt.NewSolverWithFactory(smt.Options{
		MaxCubes:         b.MaxCubes,
		MaxAssignments:   b.MaxAssignments,
		MaxStrCandidates: b.MaxStrCandidates,
		MaxIntCandidates: b.MaxIntCandidates,
	}, fac)
	tr := translate.NewWithFactory(res.Graph, fac)
	sess := solver.NewSession()
	seen := map[string]bool{}
	for _, hit := range res.Sinks {
		a.sinks++
		sp := d.begin(parent, spanModel)
		cand := vulnmodel.Model(res.Graph, tr, vulnmodel.Sink{
			Name: hit.Sink,
			File: hit.File,
			Line: hit.Line,
			Src:  hit.Src,
			Dst:  hit.Dst,
			Cur:  hit.Env.Cur,
		}, vulnmodel.DefaultExtensions)
		d.end(sp)
		d.n.modeled++
		if !cand.Tainted {
			continue
		}
		d.n.tainted++
		site := fmt.Sprintf("%s:%d", cand.File, cand.Line)
		if seen[site] {
			continue
		}

		sp = d.begin(parent, spanSMT)
		var (
			st     smt.Stats
			status smt.Status
			model  smt.Model
			err    error
		)
		sess.Push()
		sess.Assert(cand.Extension)
		quick := sess.QuickUnsat(&st)
		if quick {
			status = smt.Unsat
		} else {
			sess.Assert(cand.Reach)
			status, model, _, err = sess.CheckCtx(d.ctx)
		}
		sess.Pop()
		d.end(sp)

		d.n.checks++
		switch {
		case quick:
			d.n.quick++
		case status == smt.Sat:
			d.n.sat++
		case status == smt.Unknown:
			d.n.unknown++
		}
		if status != smt.Sat {
			if errors.Is(err, smt.ErrBudget) {
				a.failed, a.retryable = true, true
			}
			continue
		}
		seen[site] = true
		a.findings = append(a.findings, findingKey(cand.File, cand.Line, cand.Sink, model))
	}
}

// fallback is the ladder's last rung: the taint-only baseline over the
// root's file. Its hits are degraded findings, which never set the
// verdict, so only its cost matters here.
func (d *driver) fallback(parent obs.SpanID, root *callgraph.Node, files []*phpast.File) {
	var rootFiles []*phpast.File
	for _, f := range files {
		if f.Name == root.File {
			rootFiles = append(rootFiles, f)
		}
	}
	if len(rootFiles) == 0 {
		return
	}
	sp := d.begin(parent, spanBaseline)
	baseline.RIPSLikeFiles(root.String(), rootFiles)
	d.end(sp)
}
