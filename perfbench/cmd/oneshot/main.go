// Command oneshot is one attack-oneshot operation of the benchmark, run
// as a fresh process so every process-wide cache starts cold:
//
//	oneshot -key k0,k1,k2,k3 -iv v0,v1,v2,v3 -seed 7 -pad 2 [-encrypt] [-trace]
//
// It prints one JSON line (oneshot.Result) and exits 1 if the attack
// failed.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"snowbma/perfbench/internal/oneshot"
	"snowbma/perfbench/internal/procstat"
)

func main() {
	start := time.Now().UnixNano()
	cfg, traced, err := oneshot.ParseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "oneshot:", err)
		os.Exit(2)
	}
	res := oneshot.Run(cfg, traced)
	res.StartUnixNS = start
	if res.PeakRSSMB, err = procstat.PeakRSSMB(); err != nil && res.Error == "" {
		res.Error = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "oneshot:", err)
		os.Exit(1)
	}
	if res.Error != "" {
		os.Exit(1)
	}
}
