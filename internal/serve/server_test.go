package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sspp"
)

// newTestServer builds a Server and an httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs the grid spec and returns (status, body, response).
func submit(t *testing.T, ts *httptest.Server, spec GridSpec, query string) (int, []byte, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/grids"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/grids: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp
}

// smallGrid is the canonical cheap test grid: one agent-backend cell.
func smallGrid() GridSpec {
	return GridSpec{Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 2}
}

func TestSubmitComputesAndWarmRepeatIsByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	code, cold, resp := submit(t, ts, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("cold submit: status %d, body %s", code, cold)
	}
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=1 dedup=0 memory=0 disk=0" {
		t.Fatalf("cold provenance = %q", got)
	}
	if got := s.counts[srcComputed].Load(); got != 1 {
		t.Fatalf("cold submit computed %d cells, want 1", got)
	}

	code, warm, resp := submit(t, ts, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("warm submit: status %d, body %s", code, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm repeat is not byte-identical to the cold compute:\ncold: %s\nwarm: %s", cold, warm)
	}
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=0 dedup=0 memory=1 disk=0" {
		t.Fatalf("warm provenance = %q", got)
	}
	if got := s.counts[srcComputed].Load(); got != 1 {
		t.Fatalf("warm repeat re-simulated: computed %d cells, want still 1", got)
	}

	// The result must decode and carry the resolved one-cell grid.
	var gr GridResult
	if err := json.Unmarshal(warm, &gr); err != nil {
		t.Fatalf("decode GridResult: %v", err)
	}
	if gr.SchemaVersion != ResultSchemaVersion || len(gr.Cells) != 1 {
		t.Fatalf("GridResult = schema %d, %d cells; want schema %d, 1 cell",
			gr.SchemaVersion, len(gr.Cells), ResultSchemaVersion)
	}
	var cr CellResult
	if err := json.Unmarshal(gr.Cells[0], &cr); err != nil {
		t.Fatalf("decode CellResult: %v", err)
	}
	if cr.Spec.Protocol != sspp.ProtocolElectLeader || cr.Spec.Backend != sspp.BackendAgent ||
		cr.Spec.Topology != "complete" || cr.Spec.Clock != sspp.ClockDiscrete {
		t.Fatalf("cell spec not resolved: %+v", cr.Spec)
	}
	if cr.Hash != cr.Spec.Hash() {
		t.Fatalf("stamped hash %s != recomputed %s", cr.Hash, cr.Spec.Hash())
	}
	if cr.Cell.Recovered != 2 {
		t.Fatalf("cell recovered %d/2 trials", cr.Cell.Recovered)
	}
}

// TestSingleflightDedup floods the server with identical concurrent
// submissions: exactly one simulation must run, everyone must get the same
// bytes. Run under -race this also exercises the flight/cache locking.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(GridSpec{Points: []sspp.Point{{N: 64, R: 8}}, Seeds: 3})
			resp, err := http.Post(ts.URL+"/v1/grids", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if got := s.counts[srcComputed].Load(); got != 1 {
		t.Fatalf("%d concurrent identical submissions computed %d cells, want 1 (dedup=%d memory=%d)",
			clients, got, s.counts[srcDedup].Load(), s.counts[srcMemory].Load())
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
	}
}

// TestDecompositionMatchesEnsemble submits a multi-axis grid and checks
// every served cell against the same cross product run directly through
// the public Ensemble: the service decomposes, caches and reassembles, but
// the numbers must be exactly the Ensemble's.
func TestDecompositionMatchesEnsemble(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})

	spec := GridSpec{
		Protocols:   []string{sspp.ProtocolElectLeader, sspp.ProtocolCIW},
		Points:      []sspp.Point{{N: 24, R: 6}, {N: 32, R: 8}},
		Adversaries: []string{"", string(sspp.AdversaryTwoLeaders)},
		Seeds:       2,
		BaseSeed:    99,
	}
	code, body, _ := submit(t, ts, spec, "")
	if code != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	var gr GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatalf("decode GridResult: %v", err)
	}

	direct, err := sspp.NewEnsemble(sspp.Grid{
		Protocols:   spec.Protocols,
		Points:      spec.Points,
		Adversaries: []sspp.Adversary{"", sspp.AdversaryTwoLeaders},
		Seeds:       spec.Seeds,
		BaseSeed:    spec.BaseSeed,
	})
	if err != nil {
		t.Fatalf("NewEnsemble: %v", err)
	}
	want := direct.Run()
	if len(gr.Cells) != len(want.Cells) {
		t.Fatalf("served %d cells, ensemble has %d", len(gr.Cells), len(want.Cells))
	}
	// The service's decomposition order with a single backend is the
	// Ensemble's declaration order, so cells align by index.
	for i, raw := range gr.Cells {
		var cr CellResult
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		w := want.Cells[i]
		if cr.Cell.Point != w.Point || cr.Cell.Adversary != w.Adversary {
			t.Fatalf("cell %d is (%+v, %q), ensemble has (%+v, %q)",
				i, cr.Cell.Point, cr.Cell.Adversary, w.Point, w.Adversary)
		}
		if cr.Cell.Recovered != w.Recovered || cr.Cell.Failures != w.Failures {
			t.Fatalf("cell %d recovered %d/%d failures, ensemble %d/%d",
				i, cr.Cell.Recovered, cr.Cell.Failures, w.Recovered, w.Failures)
		}
		if !reflect.DeepEqual(cr.Cell.Samples, w.Samples) {
			t.Fatalf("cell %d samples %v, ensemble %v", i, cr.Cell.Samples, w.Samples)
		}
		if cr.Cell.Interactions != w.Interactions {
			t.Fatalf("cell %d interactions %+v, ensemble %+v", i, cr.Cell.Interactions, w.Interactions)
		}
	}
}

// TestOverlappingGridsShareCells submits a superset grid after a subset:
// the shared cell must come from cache, only the new cells compute.
func TestOverlappingGridsShareCells(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	code, _, _ := submit(t, ts, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("subset submit: status %d", code)
	}
	super := smallGrid()
	super.Points = append(super.Points, sspp.Point{N: 48, R: 8})
	code, _, resp := submit(t, ts, super, "")
	if code != http.StatusOK {
		t.Fatalf("superset submit: status %d", code)
	}
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=1 dedup=0 memory=1 disk=0" {
		t.Fatalf("superset provenance = %q", got)
	}
	if got := s.counts[srcComputed].Load(); got != 2 {
		t.Fatalf("computed %d cells total, want 2 (1 + 1 new)", got)
	}
}

func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Options{Workers: 2, Dir: dir})
	code, cold, _ := submit(t, ts1, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("cold submit: status %d", code)
	}

	// A fresh server over the same directory: empty LRU, warm disk.
	s2, ts2 := newTestServer(t, Options{Workers: 2, Dir: dir})
	code, warm, resp := submit(t, ts2, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("warm submit: status %d", code)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("disk-warm repeat differs from the original compute")
	}
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=0 dedup=0 memory=0 disk=1" {
		t.Fatalf("disk provenance = %q", got)
	}
	if got := s2.counts[srcComputed].Load(); got != 0 {
		t.Fatalf("restarted server re-simulated %d cells", got)
	}
}

// TestCorruptDiskCellIsRecomputed: a truncated cell file on disk (a crash
// mid-write on a filesystem that reordered it, or a damaged volume) is a
// miss, not a cache hit: a restarted server neither serves it on
// /v1/cells nor embeds it in a grid, and recomputes the same bytes.
func TestCorruptDiskCellIsRecomputed(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Options{Workers: 2, Dir: dir})
	code, cold, _ := submit(t, ts1, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("cold submit: status %d", code)
	}
	spec := smallGrid()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	key := cells[0].Hash()
	if err := os.WriteFile(filepath.Join(dir, "cells", key+".json"), []byte(`{"schema_version":1,"hash":"tru`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Options{Workers: 2, Dir: dir})
	resp, err := http.Get(ts2.URL + "/v1/cells/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("truncated cell served on /v1/cells: status %d, want 404", resp.StatusCode)
	}
	code, again, resp := submit(t, ts2, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("submit over a truncated cell: status %d, body %s", code, again)
	}
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=1 dedup=0 memory=0 disk=0" {
		t.Fatalf("provenance = %q, want a recompute", got)
	}
	if !bytes.Equal(cold, again) {
		t.Fatalf("recomputed grid differs from the first compute")
	}
}

func TestCellEndpointAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	// Unknown cells 404 without simulating.
	resp, err := http.Get(ts.URL + "/v1/cells/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cell: status %d, want 404", resp.StatusCode)
	}

	// Invalid grids reject up front: species backend on a ring topology.
	bad := GridSpec{
		Backends:   []string{sspp.BackendSpecies},
		Topologies: []string{"ring"},
		Points:     []sspp.Point{{N: 32, R: 8}},
		Seeds:      1,
	}
	code, body, _ := submit(t, ts, bad, "")
	if code != http.StatusBadRequest {
		t.Fatalf("species-on-ring: status %d, body %s, want 400", code, body)
	}

	// Unknown fields reject (typo safety).
	resp, err = http.Post(ts.URL+"/v1/grids", "application/json",
		strings.NewReader(`{"points":[{"n":32,"r":8}],"sedes":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// A computed cell is retrievable by content address, byte-identical to
	// its embedded GridResult form.
	code, body, _ = submit(t, ts, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	var gr GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	var cr CellResult
	if err := json.Unmarshal(gr.Cells[0], &cr); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/cells/" + cr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cell: status %d", resp.StatusCode)
	}
	if !bytes.Equal(direct, []byte(gr.Cells[0])) {
		t.Fatalf("cell endpoint bytes differ from the grid's embedded cell")
	}
}

// TestAsyncJobAndSSE drives the asynchronous flow: submit with ?async=1,
// stream the SSE feed to completion, then fetch the result — and checks
// checkpoints arrive for an observation-inert cell.
func TestAsyncJobAndSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	spec := smallGrid()
	spec.CheckpointEvery = 16 // small cadence so a 32-agent run emits several
	code, body, resp := submit(t, ts, spec, "?async=1")
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d, body %s", code, body)
	}
	var accepted struct {
		Job    string   `json:"job"`
		Status string   `json:"status"`
		Cells  []string `json:"cells"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Job == "" || accepted.Job != resp.Header.Get("X-Sppd-Job") || len(accepted.Cells) != 1 {
		t.Fatalf("accepted = %+v, header job %q", accepted, resp.Header.Get("X-Sppd-Job"))
	}

	events, err := http.Get(ts.URL + "/v1/grids/" + accepted.Job + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	if ct := events.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			counts[name]++
		}
	}
	if counts["checkpoint"] == 0 || counts["cell"] != 1 || counts["done"] != 1 {
		t.Fatalf("event counts %v: want checkpoints > 0, one cell, one done", counts)
	}

	// The finished job serves the result, byte-identical to a fresh
	// synchronous submission of the same grid.
	jobResp, err := http.Get(ts.URL + "/v1/grids/" + accepted.Job)
	if err != nil {
		t.Fatal(err)
	}
	jobBody, _ := io.ReadAll(jobResp.Body)
	jobResp.Body.Close()
	if jobResp.StatusCode != http.StatusOK {
		t.Fatalf("job fetch: status %d, body %s", jobResp.StatusCode, jobBody)
	}
	_, syncBody, _ := submit(t, ts, smallGrid(), "")
	if !bytes.Equal(jobBody, syncBody) {
		t.Fatalf("async result differs from sync result for the same grid")
	}
}

// TestReplayRoundTrip fetches a trial recording for a cached cell and
// replays it through the public API: the reconstructed run must be
// bit-identical to the ensemble's trial (same stabilization interaction).
func TestReplayRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	code, body, _ := submit(t, ts, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	var gr GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	var cr CellResult
	if err := json.Unmarshal(gr.Cells[0], &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Cell.Recovered != 2 {
		t.Fatalf("cell recovered %d/2; the replay assertion needs both trials", cr.Cell.Recovered)
	}

	const seed = 1
	resp, err := http.Get(fmt.Sprintf("%s/v1/cells/%s/replay?seed=%d", ts.URL, cr.Hash, seed))
	if err != nil {
		t.Fatal(err)
	}
	replayBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d, body %s", resp.StatusCode, replayBody)
	}
	var rr ReplayResult
	if err := json.Unmarshal(replayBody, &rr); err != nil {
		t.Fatal(err)
	}
	rec, err := sspp.DecodeRecording(bytes.NewReader(rr.Recording))
	if err != nil {
		t.Fatalf("decode recording: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("empty recording")
	}

	// Reconstruct the trial off the recording + protocol seed alone.
	sys, err := sspp.New(sspp.Config{Protocol: cr.Spec.Protocol, N: cr.Spec.Point.N,
		R: cr.Spec.Point.R, Seed: rr.ProtoSeed})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(sspp.Until(sspp.SafeSet), sspp.WithScheduler(rec.Replay()),
		sspp.MaxInteractions(cr.Spec.MaxInteractions))
	if !res.Stabilized {
		t.Fatal("replayed trial did not stabilize")
	}
	if want := uint64(cr.Cell.Samples[seed]); res.StabilizedAt != want {
		t.Fatalf("replayed trial stabilized at %d, ensemble trial at %d", res.StabilizedAt, want)
	}

	// Replays of unsupported cells fail cleanly: adversarial starts consume
	// a private stream the public replay cannot re-derive.
	advSpec := smallGrid()
	advSpec.Adversaries = []string{string(sspp.AdversaryTwoLeaders)}
	code, body, _ = submit(t, ts, advSpec, "")
	if code != http.StatusOK {
		t.Fatalf("adversarial submit: status %d", code)
	}
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gr.Cells[0], &cr); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/cells/" + cr.Hash + "/replay")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("adversarial replay: status %d, want 400", resp.StatusCode)
	}
}

// TestRequestHardening covers the server's abuse guards: content-address
// validation on the cell endpoints (the router percent-decodes path
// segments, so an unvalidated {hash} could walk "../" into the disk
// store), the request body size limit, and the per-request resource caps.
func TestRequestHardening(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{
		Workers: 1, Dir: dir,
		MaxBodyBytes: 512, MaxN: 100, MaxSeeds: 4, MaxTrialInteractions: 1 << 20,
	})
	// Plant a decoy .json outside the store's cells/ directory; an encoded
	// "../" traversal segment would resolve the cell path onto it.
	if err := os.WriteFile(filepath.Join(dir, "secret.json"),
		[]byte(`{"schema_version":1,"hash":"decoy"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{
		"/v1/cells/..%2Fsecret",                // traversal into the store dir
		"/v1/cells/..%2F..%2Fsecret",           // traversal out of the store dir
		"/v1/cells/" + strings.Repeat("A", 64), // uppercase: not canonical
		"/v1/cells/" + strings.Repeat("a", 63), // wrong length
		"/v1/cells/" + strings.Repeat("g", 64), // not hex
		"/v1/cells/..%2Fsecret/replay",         // traversal via the replay endpoint
		"/v1/cells/" + strings.Repeat("A", 64) + "/replay",
	} {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Oversized request bodies reject with 413 before decoding.
	resp, err := http.Post(ts.URL+"/v1/grids", "application/json",
		strings.NewReader(strings.Repeat(" ", 1024)+`{"points":[{"n":32,"r":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Per-request resource caps reject before any cell is registered.
	for name, spec := range map[string]GridSpec{
		"n over cap":     {Points: []sspp.Point{{N: 1000, R: 8}}, Seeds: 1},
		"seeds over cap": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 10},
		"budget over cap": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1,
			MaxInteractions: 1 << 30},
		// Workloads: the engine materializes one event per join or leave, so
		// the schedule and the population it reaches are capped by MaxN.
		"step events over cap": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1,
			Workload: []PhaseSpec{{Kind: "population-step", At: 10, Delta: -500}}},
		"step population over cap": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1,
			Workload: []PhaseSpec{{Kind: "population-step", At: 10, Delta: 200}}},
		"step of 2^20 joins": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1,
			Workload: []PhaseSpec{{Kind: "population-step", At: 10, Delta: 1 << 20}}},
		"churn rate over cap": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1,
			Workload: []PhaseSpec{{Kind: "join-leave-churn", End: 10000, Rate: 1, JoinFrac: 0.5}}},
		"unbounded churn rate": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1,
			Workload: []PhaseSpec{{Kind: "join-leave-churn", Rate: 1e300, JoinFrac: 0.5}}},
		"open-ended churn under the default budget": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1,
			Workload: []PhaseSpec{{Kind: "replacement-churn", Rate: 0.01}}},
		"bursts over cap": {Points: []sspp.Point{{N: 32, R: 8}}, Seeds: 1, MaxInteractions: 1000,
			Workload: []PhaseSpec{{Kind: "churn-bursts", Every: 10, Joins: 1, Leaves: 1}}},
	} {
		code, body, _ := submit(t, ts, spec, "")
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s, want 400", name, code, body)
		}
	}

	// Grids inside every limit still compute, with and without a bounded
	// workload.
	churn := smallGrid()
	churn.Workload = []PhaseSpec{{Kind: "replacement-churn", Start: 100, End: 2000, Rate: 0.5, Seed: 7}}
	for _, spec := range []GridSpec{smallGrid(), churn} {
		if code, body, _ := submit(t, ts, spec, ""); code != http.StatusOK {
			t.Errorf("in-limit grid %+v: status %d, body %s, want 200", spec, code, body)
		}
	}
}

// TestLooseLETauOverflowRejected: a "loosele" grid whose timeout overflows
// the random-state draw is a 400, not a panic in a worker, and the server
// keeps serving afterwards.
func TestLooseLETauOverflowRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := GridSpec{Protocols: []string{sspp.ProtocolLooseLE}, Points: []sspp.Point{{N: 16}},
		Adversaries: []string{string(sspp.AdversaryRandomGarbage)}, Seeds: 1, Tau: math.MaxInt32}
	if code, body, _ := submit(t, ts, bad, ""); code != http.StatusBadRequest {
		t.Fatalf("tau overflow: status %d, body %s, want 400", code, body)
	}
	if code, body, _ := submit(t, ts, smallGrid(), ""); code != http.StatusOK {
		t.Fatalf("grid after the rejected one: status %d, body %s, want 200", code, body)
	}
}

// TestDiskWriteErrorsCounted: the disk store is best effort, so a failed
// cell or replay write must not fail the request, but it must show in
// /v1/stats. Root ignores permission bits, so the writes are made to fail
// by replacing the store's directories with regular files.
func TestDiskWriteErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, Dir: dir})
	for _, sub := range []string{"cells", "replays"} {
		path := filepath.Join(dir, sub)
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stats := func() float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st["disk_write_errors"].(float64)
	}
	if got := stats(); got != 0 {
		t.Fatalf("disk_write_errors = %v before any write, want 0", got)
	}

	code, body, _ := submit(t, ts, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("submit with a broken store: status %d, body %s, want 200", code, body)
	}
	if got := stats(); got != 1 {
		t.Fatalf("disk_write_errors = %v after one dropped cell write, want 1", got)
	}

	var gr GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	var cr CellResult
	if err := json.Unmarshal(gr.Cells[0], &cr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/cells/" + cr.Hash + "/replay")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay with a broken store: status %d, want 200", resp.StatusCode)
	}
	if got := stats(); got != 2 {
		t.Fatalf("disk_write_errors = %v after a dropped replay write, want 2", got)
	}
}

func TestStatsAndProtocols(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	submit(t, ts, smallGrid(), "")
	submit(t, ts, smallGrid(), "")

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["grids"].(float64) != 2 || stats["cells_computed"].(float64) != 1 ||
		stats["memory_hits"].(float64) != 1 || stats["cache_entries"].(float64) != 1 {
		t.Fatalf("stats = %v", stats)
	}

	resp, err = http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	var protos []struct {
		Name         string   `json:"name"`
		Capabilities []string `json:"capabilities"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&protos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(protos) != len(sspp.Protocols()) {
		t.Fatalf("protocols endpoint lists %d entries, registry has %d", len(protos), len(sspp.Protocols()))
	}
}

// TestReplaySingleflight: concurrent identical replay requests coalesce
// onto one computation and get identical bytes. The pool is held until
// every request has joined the flight, so the test does not depend on
// timing.
func TestReplaySingleflight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	spec := smallGrid()
	if code, body, _ := submit(t, ts, spec, ""); code != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/cells/" + cells[0].Hash() + "/replay?seed=0"

	const clients = 8
	bodies := make([][]byte, clients)
	sources := make([]string, clients)
	release := holdPool(s)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			sources[i] = resp.Header.Get("X-Sppd-Cache")
		}(i)
	}
	waitFor(t, "replays to coalesce", func() bool { return s.replays[srcDedup].Load() == clients-1 })
	release()
	wg.Wait()

	if got := s.replays[srcComputed].Load(); got != 1 {
		t.Fatalf("%d concurrent identical replays computed %d recordings, want 1", clients, got)
	}
	computed := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
		if sources[i] == "computed" {
			computed++
		} else if sources[i] != "dedup" {
			t.Fatalf("client %d: source %q, want computed or dedup", i, sources[i])
		}
	}
	if computed != 1 {
		t.Fatalf("%d responses say computed, want 1", computed)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["replays"].(float64) != 1 || stats["dedup_hits"].(float64) != 0 {
		t.Fatalf("stats = %v: want replays 1, and no replay among the cell dedup hits", stats)
	}
}

// TestJobEviction: past maxJobs retained jobs the oldest finished ones are
// evicted and read 404, while a job still running is kept and served.
func TestJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	status := func(id string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/grids/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	submitID := func(spec GridSpec, query string, want int) string {
		t.Helper()
		code, body, resp := submit(t, ts, spec, query)
		if code != want {
			t.Fatalf("submit%s: status %d, body %s, want %d", query, code, body, want)
		}
		return resp.Header.Get("X-Sppd-Job")
	}

	first := submitID(smallGrid(), "", http.StatusOK)
	release := holdPool(s)
	heldSpec := smallGrid()
	heldSpec.BaseSeed = 9
	held := submitID(heldSpec, "?async=1", http.StatusAccepted)
	// Memory hits need no pool slot, so these finish while the held job
	// waits for one.
	ids := make([]string, maxJobs)
	for i := range ids {
		ids[i] = submitID(smallGrid(), "", http.StatusOK)
	}

	for _, id := range []string{first, ids[0]} {
		if code := status(id); code != http.StatusNotFound {
			t.Errorf("oldest finished job %s: status %d, want 404", id, code)
		}
	}
	if code := status(ids[1]); code != http.StatusOK {
		t.Errorf("retained job %s: status %d, want 200", ids[1], code)
	}
	if code := status(held); code != http.StatusAccepted {
		t.Errorf("running job %s: status %d, want 202", held, code)
	}
	s.mu.Lock()
	jobs, order := len(s.jobs), len(s.order)
	s.mu.Unlock()
	if jobs != maxJobs || order != maxJobs {
		t.Errorf("%d jobs and %d order entries retained, want %d of each", jobs, order, maxJobs)
	}

	release()
	<-s.job(held).done
	if code := status(held); code != http.StatusOK {
		t.Fatalf("held job after release: status %d, want 200", code)
	}
}
