package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and bounds (a test keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of dropscope sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cold_s", "s", "lower", 0.25},
	{"cold_rss_mb", "MB", "lower", 0.1},
	{"warm_s", "s", "lower", 0.25},
	{"warm_rss_mb", "MB", "lower", 0.1},
	{"append_s", "s", "lower", 0.25},
	{"append_rss_mb", "MB", "lower", 0.1},
	{"boot_s", "s", "lower", 0.25},
	{"reload_s", "s", "lower", 0.25},
}

// endpoints are the daemon endpoints the request mix exercises.
var endpoints = []string{"visibility", "rov", "drop", "origins", "figures", "healthz"}

var batchPhases = []string{"cold", "warm", "append"}

// perLayer are the traced run's metrics, one group per layer.
func perLayer() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, s := range []string{"rirstats", "rpki"} {
		add(s+".parse_ms", "ms", "lower")
		add(s+".mb", "MB", "lower")
		add(s+".records", "count", "lower")
		add(s+".changed_ratio", "ratio", "higher")
	}
	for _, s := range []string{"drop", "irr", "sbl"} {
		add(s+".parse_ms", "ms", "lower")
		add(s+".records", "count", "lower")
	}
	add("mrt.decode_ms", "ms", "lower")
	add("mrt.mb", "MB", "lower")
	add("mrt.records", "count", "lower")
	add("rib.build_ms", "ms", "lower")
	add("rib.freeze_ms", "ms", "lower")
	add("rib.prefixes", "count", "lower")

	add("cold.archive.load_ms", "ms", "lower")
	add("warm.archive.text_ms", "ms", "lower")
	add("append.archive.text_ms", "ms", "lower")

	add("cold.ribsnap.digest_ms", "ms", "lower")
	add("cold.ribsnap.write_ms", "ms", "lower")
	add("ribsnap.write_mb", "MB", "lower")
	add("warm.ribsnap.digest_ms", "ms", "lower")
	add("warm.ribsnap.map_ms", "ms", "lower")
	add("append.ribsnap.map_ms", "ms", "lower")
	add("append.ribsnap.write_ms", "ms", "lower")
	add("ribsnap.hit_ratio", "ratio", "higher")

	add("delta.build_ms", "ms", "lower")
	add("delta.hit_ratio", "ratio", "higher")

	for _, p := range batchPhases {
		add(p+".analysis.new_ms", "ms", "lower")
	}
	for _, e := range experiments {
		add("warm.analysis.exp."+e.name+"_ms", "ms", "lower")
	}
	add("cold.analysis.exps_ms", "ms", "lower")
	add("append.analysis.exps_ms", "ms", "lower")
	for _, p := range batchPhases {
		add(p+".report.render_ms", "ms", "lower")
	}
	for _, p := range batchPhases {
		add(p+".runtime.gc_cpu_frac", "ratio", "lower")
		add(p+".runtime.alloc_mb", "MB", "lower")
	}

	add("serve.load_ms", "ms", "lower")
	for _, e := range endpoints {
		add("serve.handler_us."+e, "us", "lower")
	}
	for _, e := range endpoints {
		add("serve.allocs."+e, "count", "lower")
	}
	add("serve.metrics_kb", "KB", "lower")
	add("serve.metrics_scrape_ms", "ms", "lower")
	add("serve.shed", "count", "lower")
	add("serve.delta_hit_ratio", "ratio", "higher")
	add("serve.q_light_p50_ms", "ms", "lower")
	add("serve.q_light_p99_ms", "ms", "lower")
	add("serve.q_heavy_p50_ms", "ms", "lower")
	add("serve.q_heavy_p99_ms", "ms", "lower")
	add("serve.sat_qps", "1/s", "higher")
	add("serve.reload_window_p99_ms", "ms", "lower")

	add("loadgen.late_p99_ms", "ms", "lower")
	for _, p := range []string{"light", "heavy", "sat", "reload"} {
		add("loadgen."+p+".sent", "count", "higher")
		add("loadgen."+p+".ok", "count", "higher")
		add("loadgen."+p+".failed", "count", "lower")
	}
	for _, p := range batchPhases {
		add(p+".trace.coverage", "ratio", "higher")
	}
	add("trace.overhead_frac", "ratio", "lower")
	return d
}
