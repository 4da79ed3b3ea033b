package main

import (
	"bufio"
	"context"
	"embed"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/runner"
)

// The goldens are embedded, so a built binary checks against the
// files it was built with; -update-golden rewrites the sources.
//
//go:embed testdata/*.tsv
var goldenFS embed.FS

const (
	sweepGoldenFile  = "testdata/sweep_exact.tsv"
	policyGoldenFile = "testdata/policies_exact.tsv"
	daemonGoldenFile = "testdata/daemon_sha256.tsv"
)

// simGoldens holds the exact-mode references the sim workloads are
// checked against.
type simGoldens struct {
	// points maps "workload threads" to the exact run's
	// TotalCycles, BusBusyCycles and AvgActiveCores.
	points map[string][3]string
	// exactRef maps "workload bandwidth policy" to the exact-mode
	// TotalCycles a sampled placement is measured against.
	exactRef map[string]uint64
	// meanErrPct is the sampled mean cycle error recorded with the
	// references.
	meanErrPct float64
}

func pointKey(workload string, threads int) string {
	return fmt.Sprintf("%s %d", workload, threads)
}

func placementKey(workload string, bw float64, policy string) string {
	return fmt.Sprintf("%s %g %s", workload, bw, policy)
}

func pointFields(r core.RunResult) [3]string {
	return [3]string{
		strconv.FormatUint(r.TotalCycles, 10),
		strconv.FormatUint(r.BusBusyCycles, 10),
		strconv.FormatFloat(r.AvgActiveCores, 'g', -1, 64),
	}
}

// checkPoint compares one exact sweep point with its golden row and
// describes any mismatch.
func (g *simGoldens) checkPoint(workload string, threads int, r core.RunResult) string {
	want, ok := g.points[pointKey(workload, threads)]
	if !ok {
		return fmt.Sprintf("%s threads=%d: no golden row", workload, threads)
	}
	if got := pointFields(r); got != want {
		return fmt.Sprintf("%s threads=%d: got cycles/bus/active %v, golden %v", workload, threads, got, want)
	}
	return ""
}

// checkPlacement returns a sampled placement's cycle error against the
// exact reference, in percent, and describes a gate violation.
func (g *simGoldens) checkPlacement(workload string, bw float64, policy string, r core.RunResult) (float64, string) {
	key := placementKey(workload, bw, policy)
	ref, ok := g.exactRef[key]
	if !ok || ref == 0 {
		return 0, fmt.Sprintf("%s: no exact reference", key)
	}
	e := 100 * math.Abs(float64(r.TotalCycles)-float64(ref)) / float64(ref)
	if e > maxPlacementErrPct {
		return e, fmt.Sprintf("%s: sampled cycles %d are %.2f%% from exact %d (gate %d%%)",
			key, r.TotalCycles, e, ref, maxPlacementErrPct)
	}
	return e, ""
}

func loadSimGoldens() (*simGoldens, error) {
	g := &simGoldens{points: map[string][3]string{}, exactRef: map[string]uint64{}}
	err := readTSV(sweepGoldenFile, 5, func(f []string) error {
		g.points[f[0]+" "+f[1]] = [3]string{f[2], f[3], f[4]}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	err = readTSV(policyGoldenFile, 4, func(f []string) error {
		v, err := strconv.ParseUint(f[3], 10, 64)
		g.exactRef[f[0]+" "+f[1]+" "+f[2]] = v
		return err
	}, func(comment string) error {
		if v, ok := strings.CutPrefix(comment, "sampled_mean_err_pct "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			g.meanErrPct = f
			return err
		}
		return nil
	})
	return g, err
}

// loadDaemonGoldens maps each daemon spec (compact JSON, no client) to
// the SHA-256 of its compacted result.
func loadDaemonGoldens() (map[string]string, error) {
	out := map[string]string{}
	err := readTSV(daemonGoldenFile, 2, func(f []string) error {
		out[f[0]] = f[1]
		return nil
	}, nil)
	return out, err
}

// readTSV parses an embedded tab-separated golden: '#' lines go to
// comment (without the '#'), others must have exactly n fields.
func readTSV(name string, n int, row func([]string) error, comment func(string) error) error {
	f, err := goldenFS.Open(name)
	if err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if c, ok := strings.CutPrefix(text, "#"); ok {
			if comment != nil {
				if err := comment(strings.TrimSpace(c)); err != nil {
					return fmt.Errorf("golden %s:%d: %w", name, line, err)
				}
			}
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != n {
			return fmt.Errorf("golden %s:%d: %d fields, want %d", name, line, len(fields), n)
		}
		if err := row(fields); err != nil {
			return fmt.Errorf("golden %s:%d: %w", name, line, err)
		}
	}
	return sc.Err()
}

// writeGolden writes a golden source file under the benchmark's
// directory; the next build embeds it.
func writeGolden(root, name string, write func(w io.Writer) error) error {
	path := filepath.Join(root, "cmd", "fdtbench", name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// updateGoldens regenerates testdata/ from this checkout: every
// sweep-exact point, the exact reference of every policies-sampled
// placement with the sampled mean error against it, and the result
// hash of every daemon spec.
func updateGoldens(ctx context.Context, e *env, log io.Writer) error {
	runner.SetWorkers(hostWorkers)
	sw := sweepExact()
	swRes, err := runExact(sw)
	if err != nil {
		return err
	}
	err = writeGolden(e.root, sweepGoldenFile, func(w io.Writer) error {
		fmt.Fprintln(w, "# sweep-exact: workload, threads, TotalCycles, BusBusyCycles, AvgActiveCores (exact mode, Table-1 machine)")
		for ci, c := range sw.calls {
			for i, r := range swRes[ci].Sweep {
				f := pointFields(r)
				fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\n", c.Workload, c.Threads[i], f[0], f[1], f[2])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "fdtbench: wrote %s\n", sweepGoldenFile)

	ps := policiesSampled()
	psRes, err := runExact(ps)
	if err != nil {
		return err
	}
	refs := &simGoldens{exactRef: map[string]uint64{}}
	var rows []string
	for ci, c := range ps.calls {
		for i, r := range psRes[ci].Policies {
			refs.exactRef[placementKey(c.Workload, c.Bandwidth, c.Policies[i])] = r.TotalCycles
			rows = append(rows, fmt.Sprintf("%s\t%g\t%s\t%d", c.Workload, c.Bandwidth, c.Policies[i], r.TotalCycles))
		}
	}
	refs.meanErrPct = 100 // the mean gate is what is being measured here
	sampledRep := runSimPass(ps, order(0, 0, len(ps.calls)), refs, false)
	if len(sampledRep.Failures) > 0 {
		return errors.New(sampledRep.Failures[0])
	}
	err = writeGolden(e.root, policyGoldenFile, func(w io.Writer) error {
		fmt.Fprintln(w, "# policies-sampled: workload, bandwidth, policy, exact-mode TotalCycles (Table-1 machine)")
		fmt.Fprintf(w, "# sampled_mean_err_pct %.4f\n", mean(sampledRep.ErrPct))
		for _, r := range rows {
			fmt.Fprintln(w, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "fdtbench: wrote %s (sampled mean error %.3f%%)\n", policyGoldenFile, mean(sampledRep.ErrPct))

	cold := daemonCold()
	res, err := withDaemon(ctx, e.fdtd, filepath.Join(e.work, "golden-store"), nil, func(d *daemonProc) (daemonPassResult, error) {
		return runDaemonPass(ctx, d.base, cold, cold.clientSequences(0, 0), nil, false)
	})
	if err != nil {
		return err
	}
	if len(res.failures) > 0 {
		return errors.New(res.failures[0])
	}
	err = writeGolden(e.root, daemonGoldenFile, func(w io.Writer) error {
		fmt.Fprintln(w, "# daemon: job spec (JSON), SHA-256 of the compacted result JSON")
		for _, s := range cold.specs {
			sum, ok := res.sums[s.key()]
			if !ok {
				return fmt.Errorf("no result for %s", s.key())
			}
			fmt.Fprintf(w, "%s\t%s\n", s.key(), sum)
		}
		return nil
	})
	if err == nil {
		fmt.Fprintf(log, "fdtbench: wrote %s\n", daemonGoldenFile)
	}
	return err
}

// runExact runs every call of w in exact mode, two calls at a time.
func runExact(w simWorkload) ([]experiments.SweepJobResult, error) {
	core.ResetRunCache()
	res := make([]experiments.SweepJobResult, len(w.calls))
	errs := make([]error, len(w.calls))
	runner.Map(len(w.calls), func(i int) {
		c := w.calls[i]
		res[i], errs[i] = experiments.RunSweepJob(experiments.Options{Cfg: c.config()}, c.Workload, c.Threads, c.Policies)
	})
	return res, errors.Join(errs...)
}
