// Client: drive the sppd simulation service end to end — boot a server,
// submit an Ensemble grid, stream live checkpoints over SSE, fetch the
// content-addressed result, watch a warm repeat hit the cache, and verify a
// bit-exact trial replay through the public API.
//
//	go run ./examples/client
//
// The example talks to sppd the way any external client would: plain HTTP
// and JSON, no internal imports. The sspp import below is only for the
// replay verification at the end — decoding the recording and re-running
// the trial locally.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"sspp"
)

func main() {
	// Build and boot a private sppd on a free port. The first stdout line
	// is always "sppd listening on <addr>" — that contract is what makes
	// scripting against -addr 127.0.0.1:0 possible.
	tmp, err := os.MkdirTemp("", "sppd-client")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "sppd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sppd").CombinedOutput(); err != nil {
		log.Fatalf("build sppd: %v\n%s", err, out)
	}
	srv := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Process.Kill()
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		log.Fatal("sppd exited before announcing its address")
	}
	addr, ok := strings.CutPrefix(lines.Text(), "sppd listening on ")
	if !ok {
		log.Fatalf("unexpected banner %q", lines.Text())
	}
	base := "http://" + addr
	fmt.Printf("sppd up at %s\n", base)

	// Submit a grid asynchronously: 2 points × 3 seeds of the paper's
	// ElectLeader_r, with live checkpoints every 2000 interactions.
	grid := `{
		"points": [{"n": 48, "r": 8}, {"n": 64, "r": 8}],
		"seeds": 3,
		"checkpoint_every": 2000
	}`
	resp, err := http.Post(base+"/v1/grids?async=1", "application/json", strings.NewReader(grid))
	if err != nil {
		log.Fatal(err)
	}
	var accepted struct {
		Job   string   `json:"job"`
		Cells []string `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("job %s: %d cells\n", accepted.Job, len(accepted.Cells))

	// Stream the SSE feed until the job finishes. Checkpoints carry
	// population snapshots (leader counts, safe-set flag) mid-flight.
	events, err := http.Get(base + "/v1/grids/" + accepted.Job + "/events")
	if err != nil {
		log.Fatal(err)
	}
	var event string
	checkpoints := 0
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "checkpoint":
			checkpoints++
		case "cell", "done", "error":
			fmt.Printf("  %s %s\n", event, data)
		}
	}
	events.Body.Close()
	fmt.Printf("  %d checkpoints streamed\n", checkpoints)

	// Fetch the finished result. Every cell is content-addressed: the hash
	// is a canonical encoding of the resolved cell config, so any client
	// that asks for the same science gets the same address.
	resp, err = http.Get(base + "/v1/grids/" + accepted.Job)
	if err != nil {
		log.Fatal(err)
	}
	cold, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("result fetch: status %d, err %v", resp.StatusCode, err)
	}
	var result struct {
		Cells []struct {
			Hash string `json:"hash"`
			Cell struct {
				Point        struct{ N, R int }     `json:"point"`
				Recovered    int                    `json:"recovered"`
				Interactions struct{ Mean float64 } `json:"interactions"`
				Samples      []float64              `json:"samples"`
			} `json:"cell"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(cold, &result); err != nil {
		log.Fatal(err)
	}
	for _, c := range result.Cells {
		fmt.Printf("  cell %s...: n=%d recovered %d/3, mean %.0f interactions\n",
			c.Hash[:12], c.Cell.Point.N, c.Cell.Recovered, c.Cell.Interactions.Mean)
	}

	// A warm repeat: same grid, synchronous this time. The response is
	// byte-identical and the X-Sppd-Cache header shows nothing re-ran.
	resp, err = http.Post(base+"/v1/grids", "application/json", strings.NewReader(grid))
	if err != nil {
		log.Fatal(err)
	}
	warm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("warm repeat: X-Sppd-Cache %q, byte-identical=%v\n",
		resp.Header.Get("X-Sppd-Cache"), bytes.Equal(cold, warm))
	if !bytes.Equal(cold, warm) {
		log.Fatal("cache served different bytes for the same grid")
	}

	// Bit-exact replay: ask for the interaction schedule of one trial and
	// re-run it locally through the public API. The recording plus the
	// protocol seed fully determine the trial.
	cell := result.Cells[0]
	resp, err = http.Get(base + "/v1/cells/" + cell.Hash + "/replay?seed=0")
	if err != nil {
		log.Fatal(err)
	}
	var replay struct {
		ProtoSeed uint64          `json:"proto_seed"`
		Recording json.RawMessage `json:"recording"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&replay); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	rec, err := sspp.DecodeRecording(bytes.NewReader(replay.Recording))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := sspp.New(sspp.Config{N: cell.Cell.Point.N, R: cell.Cell.Point.R, Seed: replay.ProtoSeed})
	if err != nil {
		log.Fatal(err)
	}
	res := sys.Run(sspp.Until(sspp.SafeSet), sspp.WithScheduler(rec.Replay()))
	fmt.Printf("replay: %d recorded pairs, local re-run stabilized at %d (server sample %d)\n",
		rec.Len(), res.StabilizedAt, uint64(cell.Cell.Samples[0]))
	if !res.Stabilized || res.StabilizedAt != uint64(cell.Cell.Samples[0]) {
		log.Fatal("replay diverged from the server's trial")
	}
}
