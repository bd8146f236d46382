// warm_test.go pins the warm path's contracts: a grid body is exactly
// json.Marshal(GridResult) over its cells' cached bytes whatever source
// each cell came from, the SSE frames are exactly the JSON objects they
// always were, only canonical bytes enter the cache, and a warm
// all-memory submit stays within a fixed allocation budget and writes the
// cache's own slices.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sspp"
)

// warmGrid is a 16-cell grid (4 points × 4 starts), the shape of a warm
// re-sweep.
func warmGrid() GridSpec {
	return GridSpec{
		Points: []sspp.Point{{N: 16, R: 4}, {N: 20, R: 4}, {N: 24, R: 4}, {N: 28, R: 4}},
		Adversaries: []string{"", string(sspp.AdversaryTwoLeaders), string(sspp.AdversaryTriggered),
			string(sspp.AdversaryNoLeader)},
		Seeds:    2,
		BaseSeed: 5,
	}
}

// getCell fetches a cached cell's bytes from /v1/cells/{hash}.
func getCell(t *testing.T, ts *httptest.Server, key string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/cells/" + key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cells/%.12s: status %d, body %s", key, resp.StatusCode, b)
	}
	return b
}

// marshaledGrid is what json.Marshal makes of the grid's GridResult over
// the cells the server holds under the grid's addresses, in grid order.
func marshaledGrid(t *testing.T, ts *httptest.Server, spec GridSpec) []byte {
	t.Helper()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]json.RawMessage, len(cells))
	for i := range cells {
		raw[i] = getCell(t, ts, cells[i].Hash())
	}
	b, err := json.Marshal(GridResult{SchemaVersion: ResultSchemaVersion, Cells: raw})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// holdPool takes every slot of the server's simulation pool, so a
// submitted grid's misses register their flights and then wait; release
// gives the slots back.
func holdPool(s *Server) (release func()) {
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitHeld submits the grid asynchronously while the pool is held and
// returns the job id once want cells have coalesced onto an in-flight
// computation of their twin, so a grid with duplicated cells reports
// exactly that many dedup cells.
func submitHeld(t *testing.T, s *Server, ts *httptest.Server, spec GridSpec, wantDedup uint64) string {
	t.Helper()
	release := holdPool(s)
	before := s.counts[srcDedup].Load()
	code, body, resp := submit(t, ts, spec, "?async=1")
	if code != http.StatusAccepted {
		release()
		t.Fatalf("async submit: status %d, body %s", code, body)
	}
	waitFor(t, "duplicated cells to coalesce", func() bool { return s.counts[srcDedup].Load()-before == wantDedup })
	release()
	id := resp.Header.Get("X-Sppd-Job")
	<-s.job(id).done
	return id
}

// getJob fetches a finished job's result.
func getJob(t *testing.T, ts *httptest.Server, id string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/grids/" + id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/grids/%s: status %d, body %s", id, resp.StatusCode, b)
	}
	return b, resp
}

// TestGridBodyIsMarshaledGridResult: whether a grid's cells were computed,
// coalesced, served from memory or read from disk, its body is exactly
// json.Marshal(GridResult) over the same cell bytes.
func TestGridBodyIsMarshaledGridResult(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 2, Dir: dir})
	spec := smallGrid()
	spec.Points = []sspp.Point{{N: 32, R: 8}, {N: 24, R: 6}}

	check := func(source string, spec GridSpec, body []byte, resp *http.Response, want string) {
		t.Helper()
		if got := resp.Header.Get("X-Sppd-Cache"); got != want {
			t.Fatalf("%s: provenance %q, want %q", source, got, want)
		}
		if m := marshaledGrid(t, ts, spec); !bytes.Equal(body, m) {
			t.Fatalf("%s: body differs from json.Marshal(GridResult):\nbody:    %s\nmarshal: %s", source, body, m)
		}
	}
	code, cold, resp := submit(t, ts, spec, "")
	if code != http.StatusOK {
		t.Fatalf("cold submit: status %d, body %s", code, cold)
	}
	check("computed", spec, cold, resp, "computed=2 dedup=0 memory=0 disk=0")
	_, warm, resp := submit(t, ts, spec, "")
	check("memory", spec, warm, resp, "computed=0 dedup=0 memory=2 disk=0")

	_, ts2 := newTestServer(t, Options{Workers: 2, Dir: dir})
	_, disk, resp := submit(t, ts2, spec, "")
	check("disk", spec, disk, resp, "computed=0 dedup=0 memory=0 disk=2")

	// Every cell twice: each pair computes once and coalesces once.
	dup := spec
	dup.Points = append(append([]sspp.Point(nil), spec.Points...), spec.Points...)
	dup.BaseSeed = 77
	id := submitHeld(t, s, ts, dup, 2)
	body, resp := getJob(t, ts, id)
	check("dedup", dup, body, resp, "computed=2 dedup=2 memory=0 disk=0")

	for _, b := range [][]byte{warm, disk} {
		if !bytes.Equal(b, cold) {
			t.Fatal("a repeat differs from the cold compute")
		}
	}
}

// oldFrame is an SSE frame as the server once built every frame: the
// event name and the json.Marshal of a map payload.
func oldFrame(event string, payload any) []byte {
	data, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, data))
}

// TestSSEFramesMatchMarshal pins the directly appended cell, done and
// error frames to the json.Marshal(map) frames they replace, including
// messages that JSON string encoding must escape.
func TestSSEFramesMatchMarshal(t *testing.T) {
	key := strings.Repeat("0123456789abcdef", 4)
	for src := range sourceNames {
		for _, i := range []int{0, 7, 4095} {
			got := cellFrame(i, key, source(src), nil)
			want := oldFrame("cell", map[string]any{"index": i, "hash": key, "source": sourceNames[src]})
			if !bytes.Equal(got, want) {
				t.Errorf("cell frame:\n got %q\nwant %q", got, want)
			}
		}
	}
	for _, msg := range []string{"plain", "a <b> & \"c\" \u2028 d\u2029\n\te\\f \x01 \xff", ""} {
		err := errors.New(msg)
		got := cellFrame(3, key, srcComputed, err)
		want := oldFrame("cell", map[string]any{"index": 3, "hash": key, "error": msg})
		if !bytes.Equal(got, want) {
			t.Errorf("cell error frame:\n got %q\nwant %q", got, want)
		}
		got, want = errorFrame(err), oldFrame("error", map[string]string{"error": msg})
		if !bytes.Equal(got, want) {
			t.Errorf("error frame:\n got %q\nwant %q", got, want)
		}
	}
	for _, id := range []string{"j-1", "j-18446744073709551615"} {
		if got, want := doneFrame(id), oldFrame("done", map[string]string{"job": id}); !bytes.Equal(got, want) {
			t.Errorf("done frame:\n got %q\nwant %q", got, want)
		}
	}
}

// TestMixedHitMissGrid: a grid whose cells are partly memory-resident,
// partly new and partly duplicated returns each cell's bytes in grid
// order, byte-identical to a cold compute of the same grid on a fresh
// server, and its stored SSE frames name each cell's source.
func TestMixedHitMissGrid(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	p1, p2, p3 := sspp.Point{N: 16, R: 4}, sspp.Point{N: 20, R: 4}, sspp.Point{N: 24, R: 4}
	prewarm := GridSpec{Points: []sspp.Point{p3, p1}, Seeds: 2}
	if code, body, _ := submit(t, ts, prewarm, ""); code != http.StatusOK {
		t.Fatalf("prewarm: status %d, body %s", code, body)
	}
	mixed := GridSpec{Points: []sspp.Point{p1, p2, p3, p2}, Seeds: 2}
	id := submitHeld(t, s, ts, mixed, 1)
	body, resp := getJob(t, ts, id)
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=1 dedup=1 memory=2 disk=0" {
		t.Fatalf("mixed provenance = %q", got)
	}
	if m := marshaledGrid(t, ts, mixed); !bytes.Equal(body, m) {
		t.Fatalf("mixed body differs from json.Marshal(GridResult):\nbody:    %s\nmarshal: %s", body, m)
	}
	_, fresh := newTestServer(t, Options{Workers: 2})
	if _, cold, _ := submit(t, fresh, mixed, ""); !bytes.Equal(body, cold) {
		t.Fatalf("mixed body differs from a cold compute:\nmixed: %s\ncold:  %s", body, cold)
	}
	var gr GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	cells, _ := mixed.Cells()
	for i, raw := range gr.Cells {
		var cr CellResult
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Hash != cells[i].Hash() || cr.Spec.Point != mixed.Points[i] {
			t.Fatalf("cell %d is %.12s at %+v, want %.12s at %+v", i, cr.Hash, cr.Spec.Point,
				cells[i].Hash(), mixed.Points[i])
		}
	}

	// The stored frames: one cell frame per cell, each exactly the former
	// json.Marshal(map) frame, then the done frame.
	events, err := http.Get(ts.URL + "/v1/grids/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(events.Body)
	events.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.SplitAfter(string(stream), "\n\n")
	if len(frames) != 6 || frames[5] != "" {
		t.Fatalf("event stream %q: want 4 cell frames and a done frame", stream)
	}
	frameOf := func(i int, src string) string {
		return string(oldFrame("cell", map[string]any{"index": i, "hash": cells[i].Hash(), "source": src}))
	}
	got := map[string]bool{}
	for _, f := range frames[:4] {
		got[f] = true
	}
	if !got[frameOf(0, "memory")] || !got[frameOf(2, "memory")] ||
		!(got[frameOf(1, "computed")] && got[frameOf(3, "dedup")] ||
			got[frameOf(1, "dedup")] && got[frameOf(3, "computed")]) {
		t.Fatalf("cell frames %q: want memory for cells 0 and 2, computed and dedup for cells 1 and 3", frames[:4])
	}
	if want := string(oldFrame("done", map[string]string{"job": id})); frames[4] != want {
		t.Fatalf("terminal frame %q, want %q", frames[4], want)
	}
}

// TestReindentedDiskCellIsRecomputed: a cell file that decodes to the
// right CellResult but is not the canonical bytes the server writes
// (here, re-indented) is a miss like a truncated file: recomputed,
// rewritten, and never served on /v1/cells or stitched into a grid.
func TestReindentedDiskCellIsRecomputed(t *testing.T) {
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
	path := filepath.Join(dir, "cells", key+".json")
	canonical, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 2, Dir: dir})
	code, again, resp := submit(t, ts2, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("submit over a re-indented cell: status %d, body %s", code, again)
	}
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=1 dedup=0 memory=0 disk=0" {
		t.Fatalf("provenance = %q, want a recompute", got)
	}
	if got := s2.counts[srcComputed].Load(); got != 1 {
		t.Fatalf("computed %d cells, want 1", got)
	}
	if !bytes.Equal(cold, again) {
		t.Fatalf("recomputed grid differs from the first compute")
	}
	if served := getCell(t, ts2, key); !bytes.Equal(served, canonical) {
		t.Fatalf("/v1/cells serves non-canonical bytes:\n%s", served)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, canonical) {
		t.Fatalf("cell file not rewritten canonically (%v):\n%s", err, onDisk)
	}
}

// TestReindentedDiskReplayIsRecomputed: a replay file that decodes to the
// right ReplayResult but is not the canonical bytes the server writes (here,
// re-indented) is a miss: recomputed, rewritten, and served byte-identical
// to the first compute.
func TestReindentedDiskReplayIsRecomputed(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Options{Workers: 1, Dir: dir})
	if code, _, _ := submit(t, ts1, smallGrid(), ""); code != http.StatusOK {
		t.Fatalf("cold submit: status %d", code)
	}
	spec := smallGrid()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	key := cells[0].Hash()
	replay := func(url string) ([]byte, string) {
		resp, err := http.Get(url + "/v1/cells/" + key + "/replay?seed=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("replay: status %d, %v: %s", resp.StatusCode, err, b)
		}
		return b, resp.Header.Get("X-Sppd-Cache")
	}
	computed, src := replay(ts1.URL)
	if src != "computed" {
		t.Fatalf("first replay source %q, want computed", src)
	}
	path := filepath.Join(dir, "replays", key+"-0.json")
	var indented bytes.Buffer
	if err := json.Indent(&indented, computed, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Options{Workers: 1, Dir: dir})
	again, src := replay(ts2.URL)
	if src != "computed" {
		t.Fatalf("replay over a re-indented file: source %q, want a recompute", src)
	}
	if !bytes.Equal(again, computed) {
		t.Fatalf("recomputed replay (%d bytes) differs from the first compute (%d bytes)", len(again), len(computed))
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, computed) {
		t.Fatalf("replay file not rewritten canonically (%v): %d bytes", err, len(onDisk))
	}
	if fromDisk, src := replay(ts2.URL); src != "disk" || !bytes.Equal(fromDisk, computed) {
		t.Fatalf("repeat replay: source %q, byte-identical %v", src, bytes.Equal(fromDisk, computed))
	}
}

// TestMemoryHitDoesNotSkipValidation: a grid that pairs a memory-resident
// cell with an illegal one (species on a ring) is still rejected before
// any cell runs.
func TestMemoryHitDoesNotSkipValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	if code, body, _ := submit(t, ts, smallGrid(), ""); code != http.StatusOK {
		t.Fatalf("prewarm: status %d, body %s", code, body)
	}
	hits := s.counts[srcMemory].Load()
	bad := smallGrid()
	bad.Backends = []string{sspp.BackendAgent, sspp.BackendSpecies}
	bad.Topologies = []string{"complete", "ring"}
	code, body, _ := submit(t, ts, bad, "")
	if code != http.StatusBadRequest {
		t.Fatalf("memory hit + species-on-ring: status %d, body %s, want 400", code, body)
	}
	if got := s.counts[srcComputed].Load(); got != 1 {
		t.Fatalf("rejected grid computed cells: %d computed, want the prewarm's 1", got)
	}
	if got := s.counts[srcMemory].Load(); got != hits {
		t.Fatalf("rejected grid counted %d memory hits", got-hits)
	}
}

// warmSubmitAllocBudget bounds the allocations of one warm all-memory
// 16-cell synchronous submit through Handler(), request and recorder
// included; see TestWarmSubmitAllocs.
const warmSubmitAllocBudget = 160

// writeLog is a ResponseRecorder that also keeps every slice passed to
// Write.
type writeLog struct {
	*httptest.ResponseRecorder
	writes [][]byte
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.writes = append(w.writes, b)
	return w.ResponseRecorder.Write(b)
}

// TestWarmSubmitAllocs guards the warm path's cost: a repeat of an
// all-memory 16-cell grid decodes, hashes and looks up its cells, then
// writes their cached bytes. Per-cell goroutines or per-cell validation
// would blow the allocation budget; re-encoding or copying the cells
// would change the slices written, which must be the cache's own.
func TestWarmSubmitAllocs(t *testing.T) {
	s, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body, err := json.Marshal(warmGrid())
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grids", bytes.NewReader(body)))
		return rec
	}
	cold := post()
	if cold.Code != http.StatusOK {
		t.Fatalf("prewarm: status %d, body %s", cold.Code, cold.Body)
	}
	var last *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(50, func() { last = post() })
	if got := last.Header().Get("X-Sppd-Cache"); got != "computed=0 dedup=0 memory=16 disk=0" {
		t.Fatalf("warm provenance = %q", got)
	}
	if !bytes.Equal(last.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatal("warm body differs from the prewarm body")
	}
	t.Logf("warm 16-cell submit: %.0f allocations (budget %d)", allocs, warmSubmitAllocBudget)
	if allocs > warmSubmitAllocBudget {
		t.Fatalf("warm 16-cell submit made %.0f allocations, over the budget of %d", allocs, warmSubmitAllocBudget)
	}

	log := &writeLog{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(log, httptest.NewRequest(http.MethodPost, "/v1/grids", bytes.NewReader(body)))
	spec := warmGrid()
	cells, _ := spec.Cells()
	for i := range cells {
		s.mu.Lock()
		cached := s.cache.get(cells[i].Hash())
		s.mu.Unlock()
		shared := false
		for _, b := range log.writes {
			shared = shared || len(b) == len(cached) && &b[0] == &cached[0]
		}
		if !shared {
			t.Fatalf("cell %d was not written from the cache's own slice", i)
		}
	}
}
