package main

import (
	"bufio"
	"embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The expected tables pin every simulated statistic of every job of the
// two simulation workloads, for each of the benchmark's inputs. They are
// embedded, so the benchmark checks the program against values committed
// beside it rather than against a second run of the same code.
//
//go:embed expected/*.tsv
var expectedFS embed.FS

// numInputs is the number of distinct simulation inputs. A --seed selects
// input 1 + (seed-1) mod numInputs, so seeds 1..numInputs are the inputs
// themselves and every seed maps to one whose expected statistics are
// committed. Seed 1 is the default; seed 2 is held out: it is meant for
// re-checking a claim made while working on seed 1.
const numInputs = 8

// inputSeed maps a benchmark seed to its simulation input.
func inputSeed(seed uint64) uint64 { return (seed+numInputs-1)%numInputs + 1 }

// expectations maps input seed and job name to the job's statistics.
type expectations map[uint64]map[string]simStats

const expectHeader = "seed\tjob\tipc_bits\tcycles\tinsts\tff_insts\tl2_demand\tllc_misses" +
	"\tpref_issued\tpref_dropped\tpref_timely\tpref_late\tsteps\trestarts" +
	"\tcommitted0\tcommitted1\trename_stalls\trename_total"

// loadExpected reads the committed table of a simulation workload.
func loadExpected(workload string) (expectations, error) {
	f, err := expectedFS.Open("expected/" + workload + ".tsv")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseExpected(f)
}

func parseExpected(r io.Reader) (expectations, error) {
	exp := expectations{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") || text == expectHeader {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 18 {
			return nil, fmt.Errorf("expected table line %d: %d fields, want 18", line, len(f))
		}
		seed, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expected table line %d: %w", line, err)
		}
		ipc, err := strconv.ParseUint(f[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("expected table line %d: %w", line, err)
		}
		var v [15]int64
		for i := range v {
			if v[i], err = strconv.ParseInt(f[3+i], 10, 64); err != nil {
				return nil, fmt.Errorf("expected table line %d: %w", line, err)
			}
		}
		if exp[seed] == nil {
			exp[seed] = map[string]simStats{}
		}
		exp[seed][f[1]] = simStats{
			IPCBits: ipc, Cycles: v[0], Insts: v[1], FFInsts: v[2],
			L2Demand: v[3], LLCMisses: v[4], PrefIssued: v[5],
			PrefDropped: v[6], PrefTimely: v[7], PrefLate: v[8],
			Steps: v[9], Restarts: v[10], Committed0: v[11],
			Committed1: v[12], RenameStalls: v[13], RenameTotal: v[14],
		}
	}
	return exp, sc.Err()
}

// formatExpected renders one job's row of an expected table.
func formatExpected(seed uint64, name string, s simStats) string {
	return fmt.Sprintf("%d\t%s\t%016x\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
		seed, name, s.IPCBits, s.Cycles, s.Insts, s.FFInsts, s.L2Demand, s.LLCMisses,
		s.PrefIssued, s.PrefDropped, s.PrefTimely, s.PrefLate, s.Steps, s.Restarts,
		s.Committed0, s.Committed1, s.RenameStalls, s.RenameTotal)
}

// record runs one untimed pass of a simulation workload for every input
// and writes its expected table into dir.
func record(dir, workload string, sz sizes) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Expected simulated statistics of every %s job, per input seed.\n", workload)
	fmt.Fprintf(&b, "# Written by `perfbench -record`; ipc_bits is math.Float64bits(IPC) in hex.\n")
	b.WriteString(expectHeader + "\n")
	for seed := uint64(1); seed <= numInputs; seed++ {
		jobs, err := simJobs(workload, sz, seed)
		if err != nil {
			return err
		}
		for _, j := range jobs {
			b.WriteString(formatExpected(seed, j.name, j.build(nil)()) + "\n")
		}
	}
	return os.WriteFile(filepath.Join(dir, workload+".tsv"), []byte(b.String()), 0o644)
}
