// Package cliflags registers the flags the command-line front ends
// share — machine shape, power budget, sampled mode, probe tuning and
// co-runs — once, and resolves them into a core.RunSpec, so every
// command spells, defaults and validates them the same way. It also
// prints the -list inventory fdtsim and fdttrace share.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// Group selects a set of shared flags.
type Group uint

const (
	// Machine registers -cores and -bandwidth.
	Machine Group = 1 << iota
	// Power registers -power-budget and -freq-ladder.
	Power
	// Sampled registers -sampled, -sample-tol and -sample-window.
	Sampled
	// Probe registers -probe-iters and -min-gain.
	Probe
	// Corun registers -corun and -mapping.
	Corun
)

// Flags holds the shared flag values; groups a command does not
// register keep their defaults.
type Flags struct {
	Cores        int
	Bandwidth    float64
	Budget       float64
	Ladder       string
	Sampled      bool
	SampleTol    float64
	SampleWindow int
	ProbeIters   int
	MinGain      float64
	// Pair and Mappings are -corun and -mapping as Spec parsed them,
	// nil when the flag is empty. An empty -mapping means packed for
	// one co-run (the zero machine.Mapping) and every valid mapping
	// for a sweep or report.
	Pair           []workloads.Info
	Mappings       []machine.Mapping
	corun, mapping string
}

// Register adds the selected groups to fs.
func Register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{Cores: machine.DefaultConfig().Mem.Cores, Bandwidth: 1.0}
	if groups&Machine != 0 {
		fs.IntVar(&f.Cores, "cores", f.Cores, "cores on the simulated chip")
		fs.Float64Var(&f.Bandwidth, "bandwidth", f.Bandwidth, "off-chip bandwidth scale factor")
	}
	if groups&Power != 0 {
		fs.Float64Var(&f.Budget, "power-budget", 0, "average-chip-power cap in nominal-active-core units (0 = unconstrained; implies -freq-ladder default)")
		fs.StringVar(&f.Ladder, "freq-ladder", "", "P-state ladder: \"default\" or comma-separated MHz values, nominal first (empty = single-frequency machine)")
	}
	if groups&Sampled != 0 {
		fs.BoolVar(&f.Sampled, "sampled", false, "execute kernels in sampled mode (steady-state fast-forward; see DESIGN.md Section 11)")
		fs.Float64Var(&f.SampleTol, "sample-tol", 0, "sampled-mode stability tolerance (0 = default)")
		fs.IntVar(&f.SampleWindow, "sample-window", 0, "sampled-mode detailed-window length in iterations (0 = default)")
	}
	if groups&Probe != 0 {
		fs.IntVar(&f.ProbeIters, "probe-iters", 0, "probe chunk length in iterations for hillclimb/hybrid (0 = default)")
		fs.Float64Var(&f.MinGain, "min-gain", 0, "fractional speedup a probed size needs to win, for hillclimb/hybrid (0 = default)")
	}
	if groups&Corun != 0 {
		fs.StringVar(&f.corun, "corun", "", "co-schedule two workloads as \"a+b\" (see fdtsim -list)")
		fs.StringVar(&f.mapping, "mapping", "", "thread-to-core mapping for -corun: packed, scattered, smt (empty: packed for one run, every valid mapping for a sweep or report)")
	}
	return f
}

// Spec checks the flag values and resolves them into the machine, mode
// and power of a run description, and parses -corun and -mapping into
// Pair and Mappings; the command fills in the workload and controller
// (or calls CorunSpec), then calls RunSpec.Validate.
func (f *Flags) Spec() (core.RunSpec, error) {
	switch {
	case f.ProbeIters < 0:
		return core.RunSpec{}, fmt.Errorf("-probe-iters %d, want >= 0 (0 = default)", f.ProbeIters)
	case f.MinGain < 0 || f.MinGain >= 1:
		return core.RunSpec{}, fmt.Errorf("-min-gain %g, want in [0, 1)", f.MinGain)
	case f.Bandwidth <= 0:
		return core.RunSpec{}, fmt.Errorf("-bandwidth %g, want > 0", f.Bandwidth)
	}
	f.Pair, f.Mappings = nil, nil
	if f.corun != "" {
		a, b, _ := strings.Cut(f.corun, "+")
		for _, name := range []string{a, b} {
			info, ok := workloads.ByName(name)
			if !ok {
				return core.RunSpec{}, fmt.Errorf("-corun %q: unknown workload %q (want \"a+b\"; see -list)", f.corun, name)
			}
			f.Pair = append(f.Pair, info)
		}
	}
	if f.mapping != "" {
		mp, err := machine.ParseMapping(f.mapping)
		if err != nil {
			return core.RunSpec{}, err
		}
		f.Mappings = []machine.Mapping{mp}
	}
	ladder, err := machine.ParseLadder(f.Ladder)
	if err != nil {
		return core.RunSpec{}, err
	}
	if ladder, err = machine.ResolveDVFS(f.Budget, ladder); err != nil {
		return core.RunSpec{}, err
	}
	s := core.RunSpec{
		Cfg: machine.DefaultConfig().WithCores(f.Cores).WithBandwidth(f.Bandwidth).WithFreq(ladder),
	}
	if !ladder.Trivial() {
		s.Power = &core.PowerParams{Budget: f.Budget, LockState: -1}
	}
	if f.Sampled {
		s.Mode = core.SampledMode()
		s.Mode.Params.Tol = f.SampleTol
		s.Mode.Params.WindowIters = f.SampleWindow
		s.Mode.Params = s.Mode.Params.WithDefaults()
	}
	return s, nil
}

// Control parses a policy name with core.ParseController and tunes a
// measured controller's probes from -probe-iters and -min-gain.
func (f *Flags) Control(name string) (core.Control, error) {
	c, err := core.ParseController(name)
	if err != nil {
		return c, err
	}
	switch p := c.Policy.(type) {
	case core.HillClimb:
		p.ProbeIters, p.MinGain = f.ProbeIters, f.MinGain
		c.Policy = p
	case core.Hybrid:
		p.HP.ProbeIters, p.HP.MinGain = f.ProbeIters, f.MinGain
		c.Policy = p
	}
	return c, nil
}

// CorunSpec turns single-team s into the -corun pair co-scheduled
// under -mapping (packed when empty), each team under s's controller.
func (f *Flags) CorunSpec(s core.RunSpec) core.RunSpec {
	for _, w := range f.Pair {
		s.Teams = append(s.Teams, core.Team{Workload: w.Name, Factory: w.Factory, Control: s.Control})
	}
	if f.Mappings != nil {
		s.Mapping = f.Mappings[0]
	}
	s.Control = core.Control{}
	return s
}

// PowerLine describes the ladder and budget of a run on a laddered
// machine ("ladder f2000>f1600, budget 5.60"); "" on a
// single-frequency one.
func (f *Flags) PowerLine(s core.RunSpec) string {
	if s.Power == nil {
		return ""
	}
	names := make([]string, len(s.Cfg.Freq.States))
	for i, st := range s.Cfg.Freq.States {
		names[i] = st.Name
	}
	budget := "unconstrained"
	if f.Budget > 0 {
		budget = fmt.Sprintf("%.2f", f.Budget)
	}
	return fmt.Sprintf("ladder %s, budget %s", strings.Join(names, ">"), budget)
}

// PrintList renders the -list inventory of fdtsim and fdttrace:
// workloads, synthetic extras, combinators, policies, mappings and
// execution modes.
func PrintList(stdout io.Writer) {
	fmt.Fprintln(stdout, "WORKLOADS (Table 2)")
	fmt.Fprintf(stdout, "  %-10s %-12s %-28s %s\n", "NAME", "CLASS", "PROBLEM", "INPUT")
	for _, info := range workloads.All() {
		fmt.Fprintf(stdout, "  %-10s %-12s %-28s %s\n", info.Name, info.Class, info.Problem, info.Input)
	}
	fmt.Fprintln(stdout, "\nEXTRAS (synthetic, outside Table 2)")
	for _, info := range workloads.Extras() {
		if strings.HasPrefix(info.Name, "gauntlet/") {
			continue
		}
		fmt.Fprintf(stdout, "  %-10s %-12s %-28s %s\n", info.Name, info.Class, info.Problem, info.Input)
	}
	fmt.Fprintln(stdout, "\nGAUNTLET (adversarial robustness family; run with -workload gauntlet/<member>)")
	for _, gm := range workloads.GauntletMembers() {
		fmt.Fprintf(stdout, "  %-18s breaks: %s\n", gm.Name, gm.Breaks)
	}
	fmt.Fprintln(stdout, "\nCOMBINATORS")
	fmt.Fprintf(stdout, "  %-10s %s\n", "corun", "co-schedule two workloads as concurrent teams: -corun a+b (e.g. pagemine+mg)")
	fmt.Fprintln(stdout, "\nPOLICIES (-policy; the same names on fdtsweep -policies, fdttrace and fdtd)")
	for _, p := range [][2]string{
		{"sat", "synchronization-aware threading: Eq. 3 from trained critical-section time"},
		{"bat", "bandwidth-aware threading: Eq. 5 from trained bus utilization"},
		{"sat+bat", "combined FDT: min of both estimates, Eq. 7 (aliases: combined, fdt)"},
		{"serial", "one thread (static:1)"},
		{"static", "fixed thread count: -threads N (0 = all cores), or static:N"},
		{"adaptive", "sat+bat re-trained at every phase change the monitor detects"},
		{"hillclimb", "model-free baseline: times real chunks and climbs to a local optimum (alias: hill-climb)"},
		{"hybrid", "model seed + bounded measured probes, falls back to pure measurement on model breakdown"},
	} {
		fmt.Fprintf(stdout, "  %-10s %s\n", p[0], p[1])
	}
	fmt.Fprintln(stdout, "\nMAPPINGS (-mapping, with -corun)")
	for _, mp := range machine.Mappings() {
		fmt.Fprintf(stdout, "  %-10s %s\n", mp, mp.Describe())
	}
	fmt.Fprintln(stdout, "\nMODES")
	fmt.Fprintf(stdout, "  %-10s %s\n", "exact", "every cycle simulated (default)")
	fmt.Fprintf(stdout, "  %-10s %s\n", "sampled", "steady-state fast-forward: -sampled, tuned by -sample-tol/-sample-window")
}
