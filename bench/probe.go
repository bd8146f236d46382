package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sspp"
	"sspp/internal/adversary"
	"sspp/internal/core"
	"sspp/internal/detect"
	"sspp/internal/ranking"
	"sspp/internal/rng"
	"sspp/internal/serve"
	"sspp/internal/sim"
)

// probeOut collects the per-layer metrics of a -trace run and the checks
// the probes make on the way.
type probeOut struct {
	metrics map[string]float64
	checks  int
	failed  int
	notes   []string
}

func newProbeOut() *probeOut { return &probeOut{metrics: make(map[string]float64)} }

func (p *probeOut) check(ok bool, format string, args ...any) {
	p.checks++
	if !ok {
		p.failed++
		if len(p.notes) < maxNotes {
			p.notes = append(p.notes, fmt.Sprintf(format, args...))
		}
	}
}

// runProbes measures every layer through its public entry points, from the
// benchmark's side of each call. The probes are the same for every
// workload, so every -trace run reports every per-layer metric.
func runProbes(cfg config, tr *tracer) *probeOut {
	p := newProbeOut()
	clockNS := clockCostNS()
	probeRNG(cfg, p)
	probeCore(cfg, tr, clockNS, p)
	probeKernels(cfg, p)
	probeSpecies(cfg, tr, p)
	probeServe(cfg, tr, p)
	return p
}

// kernelNS times calls of fn in batches and returns the median per-call
// cost over five batches.
func kernelNS(calls int, fn func(calls int)) float64 {
	per := make([]float64, 0, 5)
	for rep := 0; rep < 5; rep++ {
		t0 := now()
		fn(calls)
		per = append(per, float64(now().Sub(t0))/float64(calls))
	}
	return median(per)
}

func probeRNG(cfg config, p *probeOut) {
	src := rng.New(derive(cfg.seed, saltProbe))
	n := cfg.sc.t1N
	p.metrics["rng.pair_ns"] = kernelNS(cfg.sc.rngCalls, func(k int) {
		for i := 0; i < k; i++ {
			src.Pair(n)
		}
	})
	bound := uint64(cfg.sc.ciwN) + 3
	p.metrics["rng.uint64n_ns"] = kernelNS(cfg.sc.rngCalls, func(k int) {
		for i := 0; i < k; i++ {
			src.Uint64n(bound)
		}
	})
}

// Interaction classes of ElectLeader_r, by the roles of the two agents
// before the call (and, for two verifiers, whether their soft-reset
// generations match, which decides whether DetectCollision_r runs).
const (
	clsRank = iota
	clsReset
	clsRankVerify
	clsVerifySame
	clsVerifyCross
	nClasses
)

var classNames = [nClasses]string{"rank", "reset", "rank_verify", "verify_same", "verify_cross"}

func classify(p *core.Protocol, a, b int) int {
	u, v := p.Agent(a), p.Agent(b)
	switch {
	case u.Role == core.RoleResetting || v.Role == core.RoleResetting:
		return clsReset
	case u.Role == core.RoleRanking && v.Role == core.RoleRanking:
		return clsRank
	case u.Role == core.RoleVerifying && v.Role == core.RoleVerifying:
		if u.SV.Generation == v.SV.Generation {
			return clsVerifySame
		}
		return clsVerifyCross
	}
	return clsRankVerify
}

// tally is a call count and its summed duration.
type tally struct {
	calls int64
	ns    int64
}

func (t *tally) add(d time.Duration) { t.calls++; t.ns += int64(d) }

// coreTrace is the aggregated span tree of a traced replay: the trial, and
// under it every Pair draw, every Interact by class, and every safe-set
// poll, split into polls the O(1) gates reject and polls that walk the
// message system.
type coreTrace struct {
	trialNS int64
	pair    tally
	classes [nClasses]tally
	gate    tally
	walk    tally
	last    time.Time
}

// replay re-runs one t1 trial directly on internal/core: the same
// construction as buildT1, and the loop System.Run executes for
// Until(SafeSet) under SchedulerSeed: a poll at t = 0, then every n/2+1
// interactions and at the budget.
type replay struct {
	p     *core.Protocol
	sched *rng.PRNG
	n     int
}

func newReplay(sc scale, in t1Input) (*replay, error) {
	p, err := core.New(sc.t1N, sc.t1R, core.WithSeed(in.protoSeed), core.WithEvents(sim.NewEvents()))
	if err != nil {
		return nil, err
	}
	if err := adversary.Apply(p, adversary.ClassTriggered, rng.New(in.injectSeed)); err != nil {
		return nil, err
	}
	return &replay{p: p, sched: rng.New(in.schedSeed), n: sc.t1N}, nil
}

// run replays to the safe set within budget; a non-nil ct records spans.
func (r *replay) run(budget uint64, ct *coreTrace) (uint64, bool) {
	poll := uint64(r.n/2 + 1)
	if ct != nil {
		ct.last = now()
	}
	if r.poll(ct) {
		return 0, true
	}
	var t uint64
	next := poll
	for t < budget {
		end := min(next, budget)
		if ct == nil {
			for ; t < end; t++ {
				a, b := r.sched.Pair(r.n)
				r.p.Interact(a, b)
			}
		} else {
			for ; t < end; t++ {
				a, b := r.sched.Pair(r.n)
				t1 := now()
				ct.pair.add(t1.Sub(ct.last))
				c := classify(r.p, a, b)
				r.p.Interact(a, b)
				t2 := now()
				ct.classes[c].add(t2.Sub(t1))
				ct.last = t2
			}
		}
		if (t == next || t == budget) && r.poll(ct) {
			return t, true
		}
		if t == next {
			next += poll
		}
	}
	return t, false
}

// poll is InSafeSet; traced, it is classified as a walk when the O(1)
// gates (all verifiers, a permutation, no ⊤) let it reach the coherence
// walk. Span boundaries chain, so pair, class and poll spans tile the
// trial.
func (r *replay) poll(ct *coreTrace) bool {
	if ct == nil {
		return r.p.InSafeSet()
	}
	walk := r.p.AllVerifiers() && r.p.CorrectRanking() && !r.p.AnyTop()
	ok := r.p.InSafeSet()
	t := now()
	if walk {
		ct.walk.add(t.Sub(ct.last))
	} else {
		ct.gate.add(t.Sub(ct.last))
	}
	ct.last = t
	return ok
}

func (t *tally) merge(o tally) { t.calls += o.calls; t.ns += o.ns }

func (c *coreTrace) add(o *coreTrace) {
	c.trialNS += o.trialNS
	c.pair.merge(o.pair)
	c.gate.merge(o.gate)
	c.walk.merge(o.walk)
	for k := range c.classes {
		c.classes[k].merge(o.classes[k])
	}
}

// probeCore runs the first replaySeeds t1 trials through System.Run and
// replays each, traced, on internal/core. It checks that both take the same
// number of interactions and reports the traced per-class Interact and poll
// costs.
func probeCore(cfg config, tr *tracer, clockNS float64, p *probeOut) {
	sc := cfg.sc
	var sum coreTrace
	var interactions uint64
	for i := 0; i < sc.replaySeeds; i++ {
		in := t1InputFor(cfg.seed, i)
		tc := traceCtx{tr: tr, trace: tr.newTrace()}
		sys, err := buildT1(sc, in)
		if err != nil {
			p.check(false, "t1 seed %d: build: %v", i, err)
			continue
		}
		r, err := newReplay(sc, in)
		if err != nil {
			p.check(false, "t1 seed %d: replay: %v", i, err)
			continue
		}
		budget := sc.t1Budget
		if budget == 0 {
			budget = sys.DefaultBudget()
		}
		var res sspp.Result
		tc.call("system.run", func() { res = runT1(sys, in, budget) })
		var ct coreTrace
		var t uint64
		var ok bool
		tc.call("replay.traced", func() {
			t0 := now()
			t, ok = r.run(budget, &ct)
			ct.trialNS = int64(now().Sub(t0))
		})
		p.check(t == res.Interactions && ok == res.Stabilized,
			"t1 seed %d: System.Run took %d interactions (stabilized %v), the core replay %d (%v)",
			i, res.Interactions, res.Stabilized, t, ok)
		interactions += res.Interactions
		sum.add(&ct)
	}

	// Each chained span includes one clock read; take it back out.
	perCall := func(t tally) float64 {
		if t.calls == 0 {
			return 0
		}
		return float64(t.ns)/float64(t.calls) - clockNS
	}
	for c, name := range classNames {
		// From the triggered start, two verifiers of different generations
		// never meet (no such call in any replayed trial), so that class
		// has a call count but no time to report.
		if c != clsVerifyCross {
			p.metrics["core.interact_ns."+name] = perCall(sum.classes[c])
		}
		p.metrics["core.calls."+name] = float64(sum.classes[c].calls)
		tr.aggregate(aggSpan{Name: "core.interact." + name, Parent: "replay.traced", Count: sum.classes[c].calls, TotalNS: sum.classes[c].ns})
	}
	tr.aggregate(aggSpan{Name: "rng.pair", Parent: "replay.traced", Count: sum.pair.calls, TotalNS: sum.pair.ns})
	tr.aggregate(aggSpan{Name: "core.insafeset.gate", Parent: "replay.traced", Count: sum.gate.calls, TotalNS: sum.gate.ns})
	tr.aggregate(aggSpan{Name: "core.insafeset.walk", Parent: "replay.traced", Count: sum.walk.calls, TotalNS: sum.walk.ns})
	p.metrics["core.insafeset_us.walk"] = perCall(sum.walk) / 1e3
	p.metrics["core.insafeset_ns.gate"] = perCall(sum.gate)
	p.metrics["core.polls.walk"] = float64(sum.walk.calls)
	p.metrics["core.polls.gate"] = float64(sum.gate.calls)
	p.metrics["run.interactions"] = float64(interactions)

	spanned := sum.pair.ns + sum.gate.ns + sum.walk.ns
	for _, c := range sum.classes {
		spanned += c.ns
	}
	coverage := 0.0
	if sum.trialNS > 0 {
		coverage = float64(spanned) / float64(sum.trialNS)
	}
	p.metrics["run.span_coverage"] = coverage
	p.check(coverage >= 0.9, "replay spans cover %.3f of the traced trial time, want at least 0.9", coverage)
}

// drawPairs pre-draws interaction pairs so a kernel loop times only the
// kernel.
func drawPairs(n, k int, src *rng.PRNG) [][2]int {
	pairs := make([][2]int, k)
	for i := range pairs {
		a, b := src.Pair(n)
		pairs[i] = [2]int{a, b}
	}
	return pairs
}

// probeKernels times the ranking and detect sublayers standalone at the t1
// point: AssignRanks_r from its dormant start, DetectCollision_r under the
// identity ranking, and the coherence check the safe-set walk runs.
func probeKernels(cfg config, p *probeOut) {
	sc := cfg.sc
	n, r := sc.t1N, sc.t1R
	seed := derive(cfg.seed, saltProbe)

	rp, err := ranking.NewProtocol(n, r, rng.New(seed))
	if err != nil {
		p.check(false, "ranking: %v", err)
		return
	}
	pairs := drawPairs(n, sc.rankingCalls, rng.New(derive(seed, 1)))
	t0 := now()
	for _, pr := range pairs {
		rp.Interact(pr[0], pr[1])
	}
	p.metrics["ranking.interact_ns"] = float64(now().Sub(t0)) / float64(len(pairs))

	h, err := detect.NewHarness(n, r, nil, rng.New(derive(seed, 2)))
	if err != nil {
		p.check(false, "detect: %v", err)
		return
	}
	pairs = drawPairs(n, sc.detectCalls, rng.New(derive(seed, 3)))
	t0 = now()
	for _, pr := range pairs {
		h.Interact(pr[0], pr[1])
	}
	p.metrics["detect.interact_ns"] = float64(now().Sub(t0)) / float64(len(pairs))

	ranks := make([]int32, n)
	states := make([]*detect.State, n)
	for i := range ranks {
		ranks[i] = h.Rank(i)
		states[i] = h.State(i)
	}
	scratch := detect.NewCohScratch()
	coherent := true
	p.metrics["detect.coherent_us"] = kernelNS(1, func(int) {
		coherent = coherent && detect.Coherent(h.Params(), ranks, states, scratch)
	}) / 1e3
	p.check(coherent, "detect: a correctly ranked harness is not coherent")
}

// probeSpecies times species-backend construction and chunked stepping of
// both species workloads, and the agent backend on the species-elect
// inputs, whose gap to the species step is interning plus state sampling.
func probeSpecies(cfg config, tr *tracer, p *probeOut) {
	elect, ciw := newSpeciesElect(cfg), newSpeciesCIW(cfg)
	agentBuild := func(seed uint64) (*sspp.System, error) {
		c := elect.conf(seed)
		c.Backend = sspp.BackendAgent
		return sspp.New(c)
	}
	for _, c := range []struct {
		w             *speciesRun
		newName, step string
		build         func(seed uint64) (*sspp.System, error)
	}{
		{elect, "species.new_ms.elect", "species.step_ns.elect", elect.build},
		{ciw, "species.new_ms.ciw", "species.step_ns.ciw", ciw.build},
		{elect, "", "species.agent_step_ns.elect", agentBuild},
	} {
		proto, sched := c.w.seeds(0)
		trace := tr.newTrace()
		s := tr.begin(trace, 0, "species.new")
		t0 := now()
		sys, err := c.build(proto)
		newNS := now().Sub(t0)
		tr.end(s)
		if err != nil {
			p.check(false, "%s: build: %v", c.step, err)
			continue
		}
		if c.newName != "" {
			p.metrics[c.newName] = float64(newNS) / 1e6
		}
		chunks := uint64(cfg.sc.stepChunks)
		var stepNS time.Duration
		for k := uint64(0); k < chunks; k++ {
			size := c.w.budget / chunks
			if k == chunks-1 {
				size = c.w.budget - size*(chunks-1)
			}
			s := tr.begin(trace, 0, "species.step")
			t0 := now()
			sys.Step(derive(sched, k), size)
			stepNS += now().Sub(t0)
			tr.end(s)
		}
		p.check(sys.Interactions() == c.w.budget, "%s: stepped %d interactions, want %d", c.step, sys.Interactions(), c.w.budget)
		p.metrics[c.step] = float64(stepNS) / float64(c.w.budget)
	}
}

// oneCellGrid is the one-cell public Grid sppd compiles a cold cell to.
func oneCellGrid(c serve.CellSpec) sspp.Grid {
	g := sspp.Grid{
		Protocols:  []string{c.Protocol},
		Topologies: []sspp.Topology{sspp.Complete()},
		Clocks:     []string{c.Clock},
		Points:     []sspp.Point{c.Point},
		Seeds:      c.Seeds,
		BaseSeed:   c.BaseSeed,
		Backend:    c.Backend,
	}
	if c.Adversary != "" {
		g.Adversaries = []sspp.Adversary{sspp.Adversary(c.Adversary)}
	}
	return g
}

// requestLayers times the server's request layers from outside: decoding
// the body, decomposing the grid into cells, and hashing every cell.
func requestLayers(tc traceCtx, body []byte) (decode, cells, hash time.Duration, cs []serve.CellSpec, err error) {
	var spec serve.GridSpec
	t0 := now()
	tc.call("serve.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&spec)
	})
	t1 := now()
	if err != nil {
		return
	}
	tc.call("serve.cells", func() { cs, err = spec.Cells() })
	t2 := now()
	if err != nil {
		return
	}
	tc.call("serve.hash", func() {
		for k := range cs {
			cs[k].Hash()
		}
	})
	t3 := now()
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), cs, nil
}

// ensembleTimes collects per-cell samples of the three Ensemble phases.
type ensembleTimes struct{ newUS, runMS, jsonUS []float64 }

// ensemblePass computes every cell with a direct one-cell Ensemble, as the
// server does, and returns the cells' result bytes.
func ensemblePass(tc traceCtx, cs []serve.CellSpec, et *ensembleTimes) ([][]byte, error) {
	out := make([][]byte, len(cs))
	for k, cell := range cs {
		var ens *sspp.Ensemble
		var res *sspp.EnsembleResult
		var err error
		t0 := now()
		tc.call("ensemble.new", func() { ens, err = sspp.NewEnsemble(oneCellGrid(cell), sspp.Workers(1)) })
		if err != nil {
			return nil, err
		}
		t1 := now()
		tc.call("ensemble.run", func() { res = ens.Run() })
		t2 := now()
		tc.call("ensemble.json", func() {
			out[k], err = json.Marshal(serve.CellResult{SchemaVersion: serve.ResultSchemaVersion, Hash: cell.Hash(), Spec: cell, Cell: res.Cells[0]})
		})
		if err != nil {
			return nil, err
		}
		t3 := now()
		et.newUS = append(et.newUS, us(t1.Sub(t0)))
		et.runMS = append(et.runMS, us(t2.Sub(t1))/1e3)
		et.jsonUS = append(et.jsonUS, us(t3.Sub(t2)))
	}
	return out, nil
}

// fanOut runs fn(0), ..., fn(n-1) from workers goroutines and waits for all.
func fanOut(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// probeServe drives a server with cfg.workers workers and a disk store from
// cfg.workers concurrent clients: probeRequests cold requests, then
// probeRepeats warm repeats of each. Before the cold requests it times the
// request layers from outside (decoding, Cells, Hash) and computes every
// request's cells with direct one-cell Ensembles, whose bytes must equal the
// server's. What a warm request took beyond its decoding, Cells and Hash is
// serve.warm_residual_us: HTTP, the LRU and byte assembly. The cold requests
// share no cell, so the counters read from /v1/stats do not depend on the
// worker count.
func probeServe(cfg config, tr *tracer, p *probeOut) {
	dir, err := os.MkdirTemp(cfg.tmpDir, "sppd-probe-")
	if err != nil {
		p.check(false, "serve: %v", err)
		return
	}
	srv, err := startServer(cfg.workers, dir)
	if err != nil {
		p.check(false, "serve: %v", err)
		return
	}
	defer srv.close()
	n := cfg.sc.probeRequests
	bodies, direct := make([][]byte, n), make([][][]byte, n)
	layers := make([]time.Duration, n)
	var decode, cells, hash []float64
	var et ensembleTimes
	for q := range bodies {
		body, err := json.Marshal(coldSpec(cfg, saltProbe, q))
		if err != nil {
			p.check(false, "serve: encode: %v", err)
			return
		}
		trace := tr.newTrace()
		root := tr.begin(trace, 0, "layers")
		tc := traceCtx{tr: tr, trace: trace, parent: root.ID}
		d, c, h, cs, err := requestLayers(tc, body)
		if err == nil {
			direct[q], err = ensemblePass(tc, cs, &et)
		}
		tr.end(root)
		if err != nil {
			p.check(false, "serve: cold request %d: %v", q, err)
			return
		}
		decode, cells, hash = append(decode, us(d)), append(cells, us(c)), append(hash, us(h))
		bodies[q], layers[q] = body, d+c+h
	}

	cold, coldErr := make([]reply, n), make([]error, n)
	fanOut(cfg.workers, n, func(q int) {
		s := tr.begin(tr.newTrace(), 0, "request.cold")
		cold[q], coldErr[q] = srv.postGrid(bodies[q])
		tr.end(s)
	})
	bytesSum := 0
	for q, rep := range cold {
		var gr serve.GridResult
		err := coldErr[q]
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d", rep.status)
		}
		if err == nil {
			err = json.Unmarshal(rep.body, &gr)
		}
		if err != nil {
			p.check(false, "serve: cold request %d: %v", q, err)
			return
		}
		for k := range direct[q] {
			p.check(k < len(gr.Cells) && bytes.Equal(direct[q][k], gr.Cells[k]),
				"serve: cell %d.%d: a direct one-cell Ensemble does not reproduce the server's cell bytes", q, k)
		}
		bytesSum += len(rep.body)
	}

	repeats := n * cfg.sc.probeRepeats
	warmResidual, warmOK := make([]float64, repeats), make([]bool, repeats)
	fanOut(cfg.workers, repeats, func(j int) {
		q := j % n
		s := tr.begin(tr.newTrace(), 0, "request.warm")
		t0 := now()
		rep, err := srv.postGrid(bodies[q])
		lat := now().Sub(t0)
		tr.end(s)
		warmOK[j] = err == nil && rep.status == http.StatusOK && bytes.Equal(rep.body, cold[q].body)
		warmResidual[j] = us(lat - layers[q])
	})
	for j, ok := range warmOK {
		p.check(ok, "serve: warm repeat %d of request %d differs from its cold body", j/n, j%n)
	}

	st, err := srv.do(http.MethodGet, "/v1/stats", nil)
	var stats struct {
		Computed float64 `json:"cells_computed"`
		Dedup    float64 `json:"dedup_hits"`
		Memory   float64 `json:"memory_hits"`
		Disk     float64 `json:"disk_hits"`
	}
	if err == nil {
		err = json.Unmarshal(st.body, &stats)
	}
	if err != nil {
		p.check(false, "serve: stats: %v", err)
		return
	}
	hits := stats.Dedup + stats.Memory + stats.Disk
	p.metrics["serve.decode_us"] = median(decode)
	p.metrics["serve.cells_us"] = median(cells)
	p.metrics["serve.hash_us"] = median(hash)
	p.metrics["serve.warm_residual_us"] = median(warmResidual)
	p.metrics["serve.response_bytes"] = float64(bytesSum)
	p.metrics["serve.computed"] = stats.Computed
	p.metrics["serve.hit_ratio"] = hits / (hits + stats.Computed)
	p.metrics["ensemble.new_us"] = median(et.newUS)
	p.metrics["ensemble.run_ms"] = median(et.runMS)
	p.metrics["ensemble.json_us"] = median(et.jsonUS)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
