package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microbandit/internal/mem"
	"microbandit/internal/trace"
)

// recordTrace writes the first n instructions of app (seed 1) to a .mbt
// file in a fresh temporary directory and returns its path.
func recordTrace(t *testing.T, app trace.App, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), app.Name+".mbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, app.Name)
	if err != nil {
		t.Fatal(err)
	}
	g := app.New(1)
	var inst trace.Inst
	for i := 0; i < n; i++ {
		g.Next(&inst)
		if err := w.Write(&inst); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceFileMatchesLiveApp: simulating a recording through -app must
// report exactly what the live generator reports for the same budget —
// insts, cycles, IPC, hierarchy and prefetch statistics, bandit steps —
// under each kind of prefetcher. The budget straddles a chunk boundary.
func TestTraceFileMatchesLiveApp(t *testing.T) {
	const insts = trace.ChunkLen + 37
	app, err := trace.ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	path := recordTrace(t, app, insts)
	apps, err := parseApps("lbm17, " + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 || apps[1].Name != app.Name {
		t.Fatalf("parseApps = %d apps, recording named %q; want 2, %q", len(apps), apps[len(apps)-1].Name, app.Name)
	}
	for _, pf := range []string{"none", "stride", "bandit"} {
		cfg := runConfig{pfName: pf, algo: "ducb", insts: insts, stepL2: 10, seed: 1,
			memCfg: mem.DefaultConfig(), obsEvery: 100}
		live, err := simulate(context.Background(), apps[0], cfg, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := simulate(context.Background(), apps[1], cfg, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if replayed != live {
			t.Errorf("-pf %s: recording reports\n%s\nlive lbm17 reports\n%s", pf, replayed, live)
		}
		if want := fmt.Sprintf("insts=%d ", insts); !strings.Contains(live, want) {
			t.Errorf("-pf %s: report lacks %q:\n%s", pf, want, live)
		}
		if pf == "bandit" && strings.Contains(live, "bandit steps: 0\n") {
			t.Errorf("-pf bandit: no bandit step taken, so the agent path is untested:\n%s", live)
		}
	}
}

// TestParseAppsRejectsBadTraceFiles: a missing, empty or non-trace .mbt
// entry is a flag error that names the file.
func TestParseAppsRejectsBadTraceFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var header strings.Builder
	if w, err := trace.NewWriter(&header, "lbm17"); err != nil || w.Flush() != nil {
		t.Fatal("writing a trace header failed")
	}
	for name, path := range map[string]string{
		"missing":     filepath.Join(dir, "missing.mbt"),
		"zero bytes":  write("zero.mbt", ""),
		"header only": write("header.mbt", header.String()),
		"not a trace": write("text.mbt", "not a trace file\n"),
	} {
		apps, err := parseApps("lbm17," + path)
		if err == nil {
			t.Errorf("%s: parseApps accepted %s (%d apps)", name, path, len(apps))
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name %s", name, err, path)
		}
	}
}
