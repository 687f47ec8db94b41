package main

// storedRefs are the SHA-256 digests, at the default seed, of each
// workload's generated study's report (study: NewStudy, before any
// amplification) and of the reports of its base and grown archive
// states, as rendered when the benchmark was defined. Every load mode
// and the in-memory reference are checked against each other on every
// run; these anchor them to a fixed answer as well, so a defect shared
// by all of them still fails. Every run checks the study digest; a run
// at the default seed checks all three.
//
// The volume workload's base carries its amplification, and the text
// workload's grown state one day of extra MRT churn (AmplifyVolume with
// growth): both change the study's report, although AmplifyVolume is
// documented to leave the results unchanged. Each archive state
// therefore has a reference of its own.
var storedRefs = map[string]struct{ study, base, grown string }{
	"text": {
		study: "82bc087332835dab3a72cb3ce54833dd652f1296d1cc22a6aede49730e7ce4ae",
		base:  "82bc087332835dab3a72cb3ce54833dd652f1296d1cc22a6aede49730e7ce4ae",
		grown: "03814a9ed26430b4c2741ef0e9b4a6ec4ef56758dacb6667289b2b2dc6d2035e",
	},
	"volume": {
		study: "991b358f6bad2248090254f40f64fb822c5ae4b04c755477a1dfa11946f96735",
		base:  "739e412025af424247f6dc11193dd1e60c30546f24d1c2583fd83bf6027b7de7",
		grown: "669efb27c87df8cf097eaa6030d893fb035257a45a2ffc75bb7942bb5c11d695",
	},
}
