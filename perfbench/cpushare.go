package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuModules are the modules CPU time is attributed to. Every profile
// sample goes to its innermost frame in one of the repro/internal
// modules listed here; frames of other internal packages (metrics,
// pathimpl, interdomain, discovery, ...) and of the benchmark itself are
// passed over in favour of the next listed module further out, and a
// sample with no listed frame at all (GC workers, the scheduler, idle
// polling) is charged to runtime.
var cpuModules = []string{
	"core", "southbound", "netem", "northbound", "routing", "reca",
	"nib", "dataplane", "workload", "runtime",
}

// cpuShares attributes a CPU profile's samples to modules, as shares of
// all sampled CPU time. It reads the profile with `go tool pprof -traces`
// from the installed toolchain.
func cpuShares(profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, strings.TrimSpace(errb.String()))
	}
	return attributeTraces(out.String())
}

// attributeTraces parses `pprof -traces` output: blocks separated by
// dashed rule lines, each block a sample value followed by its frames,
// innermost first.
func attributeTraces(text string) (map[string]float64, error) {
	listed := map[string]bool{}
	for _, m := range cpuModules {
		listed[m] = true
	}
	by := map[string]float64{}
	var total float64
	for _, block := range strings.Split(text, "-----------+") {
		lines := strings.Split(block, "\n")
		// The first line of a block is the rest of the rule line.
		var value float64
		module := ""
		for _, line := range lines[1:] {
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			frame := f[0]
			if value == 0 {
				d, err := time.ParseDuration(f[0])
				if err != nil || len(f) < 2 {
					break // a header or label line, not a sample
				}
				value = float64(d)
				frame = f[1]
			}
			if module == "" {
				if m := internalModule(frame); listed[m] && m != "runtime" {
					module = m
				}
			}
		}
		if value == 0 {
			continue
		}
		if module == "" {
			module = "runtime"
		}
		by[module] += value
		total += value
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	for m := range by {
		by[m] /= total
	}
	return by, nil
}

// internalModule returns <module> for a repro/internal/<module> frame,
// "" for any other.
func internalModule(frame string) string {
	rest, ok := strings.CutPrefix(frame, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}
