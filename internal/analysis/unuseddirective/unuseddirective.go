// Package unuseddirective keeps the //ppml:* escape-hatch inventory honest:
// it reports every directive comment that no analyzer consulted during the
// suite run, which means the violation it once excused is gone — the code
// was fixed, moved, or the directive was misspelled or misplaced — and the
// stale justification would otherwise keep vouching for nothing.
//
// The check is a post-pass: it only works when the driver runs it after the
// other analyzers with a shared directive-usage recorder (cmd/ppml-vet and
// analysistest.RunSuite both do). Without a recorder it reports nothing,
// because it cannot distinguish "unused" from "not yet looked up".
package unuseddirective

import (
	"github.com/ppml-go/ppml/internal/analysis/framework"
)

// Analyzer is the unuseddirective checker.
var Analyzer = &framework.Analyzer{
	Name: "unuseddirective",
	Doc: "flag stale //ppml:* directives that no longer suppress any diagnostic, " +
		"and directive names no analyzer recognizes; runs after the rest of the suite",
	Run: run,
}

// knownNames are the directive names the suite consults. A //ppml: comment
// with any other name can never excuse anything and is reported as such.
var knownNames = map[string]bool{
	"err-ok":           true, // droppederr: deliberate error discard
	"deterministic-ok": true, // randsource: deliberate deterministic randomness
	"shared-ok":        true, // poolcapture: deliberate shared pooled buffer
	"flow-ok":          true, // secretflow: audited flow into a send, log, telemetry, or output sink
}

func run(pass *framework.Pass) error {
	if pass.Usage == nil {
		return nil // not running as a suite post-pass; nothing to compare against
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := framework.ParseDirective(c.Text)
				if !ok {
					continue
				}
				if !knownNames[d.Name] {
					pass.Reportf(c.Pos(),
						"unknown directive %s%s: no analyzer consults it (known names: err-ok, deterministic-ok, shared-ok, flow-ok)",
						framework.DirectivePrefix, d.Name)
					continue
				}
				if !pass.Usage.Used(c.Pos()) {
					pass.Reportf(c.Pos(),
						"stale %s%s directive: it no longer suppresses any diagnostic here — delete it (or move it back onto the line it excuses)",
						framework.DirectivePrefix, d.Name)
				}
			}
		}
	}
	return nil
}
