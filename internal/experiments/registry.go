package experiments

import "strings"

// RegistryEntry is one runnable experiment: the unit cmd/fdtreport
// renders and the fdtd daemon serves as an "experiment" job. Run
// returns the text rendition, the CSV series (empty for text-only
// tables), and the experiment's data value for JSON emission (nil for
// text-only tables).
type RegistryEntry struct {
	Name string
	Run  func() (text, csv string, data any)
}

// Registry lists every experiment over the given options, in report
// order. It is the single catalogue behind both front ends — the
// fdtreport CLI and the fdtd daemon — so a figure regenerated
// interactively and one served over HTTP run exactly the same code
// path (and therefore share run-cache entries).
func Registry(o Options) []RegistryEntry {
	return []RegistryEntry{
		{"table1", func() (string, string, any) { return Table1(o.Cfg), "", nil }},
		{"table2", func() (string, string, any) { return Table2(), "", nil }},
		{"fig2", func() (string, string, any) { f := RunFig02(o); return f.String(), f.CSV(), f }},
		{"fig4", func() (string, string, any) { f := RunFig04(o); return f.String(), f.CSV(), f }},
		{"fig8", func() (string, string, any) { f := RunFig08(o); return f.String(), f.CSV(), f }},
		{"fig9", func() (string, string, any) { f := RunFig09(o); return f.String(), f.CSV(), f }},
		{"fig10", func() (string, string, any) { f := RunFig10(o); return f.String(), f.CSV(), f }},
		{"fig12", func() (string, string, any) { f := RunFig12(o); return f.String(), f.CSV(), f }},
		{"fig13", func() (string, string, any) { f := RunFig13(o); return f.String(), f.CSV(), f }},
		{"fig14", func() (string, string, any) { f := RunFig14(o); return f.String(), f.CSV(), f }},
		{"fig15", func() (string, string, any) { f := RunFig15(o); return f.String(), f.CSV(), f }},
		{"smt", func() (string, string, any) { s := RunSMT(o); return s.String(), s.CSV(), s }},
		{"trainingcost", func() (string, string, any) { t := RunTrainingCost(o); return t.String(), t.CSV(), t }},
		{"interference", func() (string, string, any) {
			f := RunInterferencePairs(o, nil, nil)
			return f.String(), f.CSV(), f
		}},
		{"gauntlet", func() (string, string, any) { g := RunGauntlet(o); return g.String(), g.CSV(), g }},
		{"pareto", func() (string, string, any) { p := RunPareto(o); return p.String(), p.CSV(), p }},
		{"ablations", func() (string, string, any) {
			as := RunAblations(o)
			var texts, csvs []string
			for _, a := range as {
				texts = append(texts, a.String())
				csvs = append(csvs, a.CSV())
			}
			return strings.Join(texts, "\n"), strings.Join(csvs, ""), as
		}},
	}
}

// LookupExperiment finds one registry entry by name.
func LookupExperiment(o Options, name string) (RegistryEntry, bool) {
	for _, e := range Registry(o) {
		if e.Name == name {
			return e, true
		}
	}
	return RegistryEntry{}, false
}
