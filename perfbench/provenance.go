package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/workload"
)

// provenance is what a reader needs to judge whether two results are
// comparable.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Events     int    `json:"events"`
	Prefix     int    `json:"prefix"`
	Chunks     int    `json:"chunks"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the benchmark runs in a git work tree;
	// SourceSHA256 hashes go.mod and every .go file under internal/, and
	// identifies the program's source either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Transport    string `json:"transport"`
	Params       params `json:"params"`
}

type params struct {
	Regions           int     `json:"regions"`
	BSPerRegion       int     `json:"bs_per_region"`
	UEs               int     `json:"ues"`
	Shards            int     `json:"shards"`
	RemotePrefixShare float64 `json:"remote_prefix_share"`
	Mode              string  `json:"mode"`
	Lanes             int     `json:"lanes"`
	Window            int     `json:"window"`
	RatePerSec        float64 `json:"rate_per_sec"`
	ControlDelayUS    float64 `json:"control_delay_us"`
	Rounds            int     `json:"rounds"`
}

func newProvenance(o options, w spec, cfg workload.Config) provenance {
	return provenance{
		Workload: w.name, Seed: o.seed, Events: o.events, Prefix: o.prefix, Chunks: o.chunks, Seconds: o.seconds, Traced: o.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: gitHead(), SourceSHA256: sourceHash(), Transport: w.transport(),
		Params: params{
			Regions: cfg.Regions, BSPerRegion: cfg.BSPerRegion, UEs: cfg.UEs, Shards: cfg.Shards,
			RemotePrefixShare: cfg.RemotePrefixShare, Mode: string(cfg.Mode),
			Lanes: cfg.Workers, Window: cfg.MaxInFlight, RatePerSec: cfg.RatePerSec,
			ControlDelayUS: float64(cfg.ControlDelay.Microseconds()), Rounds: w.rounds,
		},
	}
}

// gitHead returns the checked-out commit, or "unknown" outside a git
// work tree.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes go.mod and every .go file under internal/, in path
// order, relative to the working directory (the repository root).
func sourceHash() string {
	var paths []string
	_ = filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			paths = append(paths, p)
		}
		return nil // an unreadable entry only leaves it out of the hash
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\n"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
