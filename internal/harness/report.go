package harness

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	// ID is the paper's table/figure identifier ("fig8", "table9", ...).
	ID string
	// Desc is a one-line description.
	Desc string
	// Run executes the experiment and returns its rendered result.
	Run func(o Options) string
}

// Experiments returns every reproducible table and figure plus the
// ablations, in the order the paper presents them.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig2", Desc: "Temporal homogeneity of Pythia's action space",
			Run: func(o Options) string { return Fig2(o).Render() }},
		{ID: "fig5", Desc: "Fetch PG policy design space vs Choi",
			Run: func(o Options) string { return Fig5(o).Render() }},
		{ID: "table8", Desc: "Bandit algorithms vs best static arm (prefetch tune set)",
			Run: func(o Options) string { return Table8(o).Render() }},
		{ID: "table9", Desc: "Bandit algorithms vs best static arm (SMT tune set)",
			Run: func(o Options) string { return Table9(o).Render() }},
		{ID: "fig7", Desc: "Exploration traces (prefetch + SMT panels)",
			Run: func(o Options) string {
				return RenderFig7(append(Fig7Prefetch(o), Fig7SMT(o)...))
			}},
		{ID: "fig8", Desc: "Single-core prefetcher comparison",
			Run: func(o Options) string { return Fig8(o).Render() }},
		{ID: "fig9", Desc: "Prefetch classification (timely/late/wrong)",
			Run: func(o Options) string { return Fig9(o).Render() }},
		{ID: "fig10", Desc: "DRAM bandwidth sweep (Pythia vs Bandit)",
			Run: func(o Options) string { return Fig10(o).Render() }},
		{ID: "fig11", Desc: "Alternative cache hierarchy",
			Run: func(o Options) string { return Fig11(o).Render() }},
		{ID: "fig12", Desc: "Multi-level prefetching",
			Run: func(o Options) string { return Fig12(o).Render() }},
		{ID: "fig13", Desc: "SMT Bandit vs Choi across mixes",
			Run: func(o Options) string { return Fig13(o).Render() }},
		{ID: "fig14", Desc: "Four-core prefetcher comparison",
			Run: func(o Options) string { return Fig14(o).Render() }},
		{ID: "fig15", Desc: "Rename-stage cycle breakdown",
			Run: func(o Options) string { return Fig15(o).Render() }},
		{ID: "areapower", Desc: "Storage / area / power model",
			Run: func(o Options) string { return AreaPower().Render() }},
		{ID: "ablations", Desc: "Design-choice ablations",
			Run: RenderAblations},
		{ID: "extras", Desc: "Extensions: BOP contrast (§8) and hierarchical bandit (§9)",
			Run: func(o Options) string { return Extras(o).Render() }},
		{ID: "rewards", Desc: "Alternative SMT reward metrics (§6.4)",
			Run: func(o Options) string { return RewardMetrics(o).Render() }},
		{ID: "tuning", Desc: "Hyperparameter tuning sweep (§6.3)",
			Run: func(o Options) string { return Tuning(o).Render() }},
		{ID: "robust", Desc: "Fault-injection robustness sweep (graceful degradation, §4.3)",
			Run: func(o Options) string { return Robust(o).Render() }},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
