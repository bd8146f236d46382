package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"sspp"
	"sspp/internal/serve"
)

// sppdServer is an in-process sppd behind a loopback HTTP listener, with a
// client whose idle-connection pool fits the closed loop's clients.
type sppdServer struct {
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client
}

func startServer(workers int, dir string) (*sppdServer, error) {
	srv, err := serve.NewServer(serve.Options{Workers: workers, Dir: dir})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: workers + 1}
	s := &sppdServer{ts: httptest.NewServer(srv.Handler()), transport: tr,
		client: &http.Client{Transport: tr}}
	if rep, err := s.do(http.MethodGet, "/v1/healthz", nil); err != nil || rep.status != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: status %d, %v", rep.status, err)
	}
	return s, nil
}

// close stops the listener, waiting for in-flight requests. The disk store
// stays.
func (s *sppdServer) close() {
	if s == nil {
		return
	}
	s.transport.CloseIdleConnections()
	s.ts.Close()
}

type reply struct {
	status int
	cache  string // the X-Sppd-Cache provenance header
	body   []byte
}

func (s *sppdServer) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Sppd-Cache"), body: b}, err
}

func (s *sppdServer) postGrid(body []byte) (reply, error) {
	return s.do(http.MethodPost, "/v1/grids", body)
}

// provenance is the X-Sppd-Cache header of a grid served entirely from one
// source.
func provenance(computed, memory int) string {
	return fmt.Sprintf("computed=%d dedup=0 memory=%d disk=0", computed, memory)
}

// checkGrid verifies a grid response against its spec: one cell per
// decomposed cell, in order, each at its own content address, with every
// trial stabilized.
func checkGrid(body []byte, spec serve.GridSpec) error {
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	var gr serve.GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		return fmt.Errorf("decode grid result: %w", err)
	}
	if len(gr.Cells) != len(cells) {
		return fmt.Errorf("%d cells, want %d", len(gr.Cells), len(cells))
	}
	for k, raw := range gr.Cells {
		var cr serve.CellResult
		if err := json.Unmarshal(raw, &cr); err != nil {
			return fmt.Errorf("decode cell %d: %w", k, err)
		}
		if want := cells[k].Hash(); cr.Hash != want {
			return fmt.Errorf("cell %d at %.12s, want %.12s", k, cr.Hash, want)
		}
		if cr.Cell.Seeds != cells[k].Seeds || cr.Cell.Recovered != cr.Cell.Seeds {
			return fmt.Errorf("cell %d: %d of %d trials stabilized", k, cr.Cell.Recovered, cells[k].Seeds)
		}
	}
	return nil
}

// coldSpec is cold request i: a fresh 4-cell grid (the cold points × a clean
// and a two-leaders start) whose base seed no other request shares.
func coldSpec(cfg config, salt uint64, i int) serve.GridSpec {
	return serve.GridSpec{
		Points:      cfg.sc.coldPoints,
		Adversaries: []string{"", string(sspp.AdversaryTwoLeaders)},
		Seeds:       cfg.sc.cellSeeds,
		BaseSeed:    derive(derive(cfg.seed, salt), uint64(i)) >> 11,
	}
}

// sppdCold drives the write path: a server with a disk store, and requests
// that never repeat a cell.
type sppdCold struct {
	cfg config
	srv *sppdServer
}

// setup starts the server on its store directory. The first set-up creates
// the directory; every later one restarts the server on it, as sppd restarts
// on a store that persists, so set-up times the server's start and not the
// file system's directory creation, whose cost on a shared disk varies from
// one run to the next by several times.
func (w *sppdCold) setup() error {
	srv, err := startServer(w.cfg.workers, filepath.Join(w.cfg.tmpDir, "sppd-cold-store"))
	if err != nil {
		return err
	}
	w.srv = srv
	return nil
}

func (w *sppdCold) op(i int, tc traceCtx) opResult {
	spec := coldSpec(w.cfg, saltCold, i)
	var body []byte
	var err error
	tc.call("encode", func() { body, err = json.Marshal(spec) })
	if err != nil {
		return failed("encode: %v", err)
	}
	var rep reply
	tc.call("post", func() { rep, err = w.srv.postGrid(body) })
	if err != nil {
		return failed("post: %v", err)
	}
	if rep.status != http.StatusOK {
		return failed("status %d: %.200s", rep.status, rep.body)
	}
	cells := len(spec.Points) * len(spec.Adversaries)
	if want := provenance(cells, 0); rep.cache != want {
		return failed("X-Sppd-Cache %q, want %q", rep.cache, want)
	}
	tc.call("check", func() { err = checkGrid(rep.body, spec) })
	if err != nil {
		return failed("%v", err)
	}
	return opResult{ok: true}
}

func (w *sppdCold) teardown() {
	w.srv.close()
	w.srv = nil
}

// warmAdversaries are the start columns of every warm grid.
var warmAdversaries = []string{"", string(sspp.AdversaryTwoLeaders), string(sspp.AdversaryTriggered), string(sspp.AdversaryNoLeader)}

// warmSpec is prewarmed grid k: warmGridPoints consecutive warm points,
// starting at the k-th, of a seeded cyclic order of all of them, crossed
// with every warm adversary. All grids share one base seed, so they overlap,
// and with warmGrids ≥ len(warmPoints) together they cover the whole
// universe of len(warmPoints)·len(warmAdversaries) cells: the prewarm
// computes the same cells whatever the seed.
func warmSpec(cfg config, k int) serve.GridSpec {
	all := append([]sspp.Point(nil), cfg.sc.warmPoints...)
	for j := len(all) - 1; j > 0; j-- {
		r := int(derive(derive(cfg.seed, saltWarmPoints), uint64(j)) % uint64(j+1))
		all[j], all[r] = all[r], all[j]
	}
	pts := make([]sspp.Point, cfg.sc.warmGridPoints)
	for j := range pts {
		pts[j] = all[(k+j)%len(all)]
	}
	return serve.GridSpec{
		Points:      pts,
		Adversaries: warmAdversaries,
		Seeds:       cfg.sc.cellSeeds,
		BaseSeed:    derive(cfg.seed, saltWarmBase) >> 11,
	}
}

// sppdWarm drives the read path: set-up computes every grid once, and the
// measured requests repeat them in a seeded order.
type sppdWarm struct {
	cfg    config
	srv    *sppdServer
	bodies [][]byte // request bodies of the prewarmed grids
	want   [][]byte // their prewarm responses, which every repeat must equal
	cells  []int    // cells per grid
}

func (w *sppdWarm) setup() error {
	srv, err := startServer(w.cfg.workers, "")
	if err != nil {
		return err
	}
	w.srv = srv
	w.bodies, w.want, w.cells = nil, nil, nil
	universe := make(map[string]bool)
	computed := 0
	for k := 0; k < w.cfg.sc.warmGrids; k++ {
		spec := warmSpec(w.cfg, k)
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		rep, err := srv.postGrid(body)
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("prewarm grid %d: status %d: %.200s", k, rep.status, rep.body)
		}
		if err := checkGrid(rep.body, spec); err != nil {
			return fmt.Errorf("prewarm grid %d: %w", k, err)
		}
		var c, d, m, dk int
		if _, err := fmt.Sscanf(rep.cache, "computed=%d dedup=%d memory=%d disk=%d", &c, &d, &m, &dk); err != nil {
			return fmt.Errorf("prewarm grid %d: X-Sppd-Cache %q: %w", k, rep.cache, err)
		}
		computed += c
		cells, _ := spec.Cells()
		for _, cs := range cells {
			universe[cs.Hash()] = true
		}
		w.bodies = append(w.bodies, body)
		w.want = append(w.want, rep.body)
		w.cells = append(w.cells, len(cells))
	}
	if want := len(w.cfg.sc.warmPoints) * len(warmAdversaries); computed != len(universe) || computed != want {
		return fmt.Errorf("prewarm computed %d cells for %d distinct ones, want %d", computed, len(universe), want)
	}
	return nil
}

func (w *sppdWarm) op(i int, tc traceCtx) opResult {
	k := int(derive(derive(w.cfg.seed, saltWarmOrder), uint64(i)) % uint64(len(w.bodies)))
	var rep reply
	var err error
	tc.call("post", func() { rep, err = w.srv.postGrid(w.bodies[k]) })
	if err != nil {
		return failed("post: %v", err)
	}
	if rep.status != http.StatusOK {
		return failed("status %d: %.200s", rep.status, rep.body)
	}
	if want := provenance(0, w.cells[k]); rep.cache != want {
		return failed("X-Sppd-Cache %q, want %q", rep.cache, want)
	}
	var same bool
	tc.call("check", func() { same = bytes.Equal(rep.body, w.want[k]) })
	if !same {
		return failed("grid %d: warm body differs from its prewarm body", k)
	}
	return opResult{ok: true}
}

func (w *sppdWarm) teardown() {
	w.srv.close()
	w.srv = nil
}
