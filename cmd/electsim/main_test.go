package main

import (
	"flag"
	"io"
	"os"
	"testing"
)

// runElectsim runs the command with args and returns what it printed.
func runElectsim(t *testing.T, args ...string) string {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("electsim", flag.ContinueOnError)
	os.Args = append([]string{"electsim"}, args...)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("electsim %v: %v\n%s", args, runErr, out)
	}
	return string(out)
}

// TestTraceOutputGolden pins the bytes of
// `electsim -n 64 -r 8 -adversary two-leaders -trace`: the phase timeline
// drawn from Observe snapshots, and the run it observes.
func TestTraceOutputGolden(t *testing.T) {
	const want = `injected adversary "two-leaders": two agents claim rank 1 (E4\E5)
ElectLeader_r  n=64 r=8 seed=1 sched=2 synthetic=false
state space: 2^5927 states per agent (Fig. 1 formula)
population timeline (n=64): R=resetting A=ranking V=verifying, *=safe set
t=5,343        [VVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVV] leaders=2     ST
t=10,686       [RRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRR] leaders=64    HT
t=21,372       [AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA] leaders=64  
t=32,058       [AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA] leaders=1   
t=64,116       [************************************************] leaders=1   
5 samples, first safe at t=64,116, events: H×1 S×1 T×2
stabilized: 64116 interactions (parallel time 1001.8)
leader: agent 28   hard resets: 2
`
	if got := runElectsim(t, "-n", "64", "-r", "8", "-adversary", "two-leaders", "-trace"); got != want {
		t.Fatalf("trace output changed:\n%s\nwant:\n%s", got, want)
	}
}
