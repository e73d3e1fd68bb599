package framework

import (
	"go/token"
	"strings"
)

// Directive is one //ppml:<name> <justification> comment. Directives are the
// audited escape hatch of the analyzer suite: every allowlisted violation
// must say, in the source, why it is safe. A directive with an empty
// justification does not excuse anything — the analyzers report it instead.
type Directive struct {
	Name          string
	Justification string
	Pos           token.Pos
}

// DirectivePrefix starts every analyzer directive comment.
const DirectivePrefix = "//ppml:"

// Directive looks up a //ppml:<name> directive governing the source line of
// pos. A directive applies to the line it is written on (trailing comment)
// and chains downward through an unbroken run of directive-bearing lines to
// the first line below the run — so a statement that violates two
// invariants stacks two directive comments above itself, each on its own
// line. When a Usage recorder is attached to the pass, every matched
// directive is marked as consulted; the unuseddirective check reports the
// ones that excused nothing.
func (p *Pass) Directive(pos token.Pos, name string) (Directive, bool) {
	if p.directives == nil {
		p.directives = make(map[string]map[int][]Directive)
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := ParseDirective(c.Text)
					if !ok {
						continue
					}
					d.Pos = c.Pos()
					cp := p.Fset.Position(c.Pos())
					lines := p.directives[cp.Filename]
					if lines == nil {
						lines = make(map[int][]Directive)
						p.directives[cp.Filename] = lines
					}
					lines[cp.Line] = append(lines[cp.Line], d)
				}
			}
		}
	}
	at := p.Fset.Position(pos)
	lines := p.directives[at.Filename]
	if lines == nil {
		return Directive{}, false
	}
	// The governed line itself, then upward while lines keep carrying
	// directives (a stacked run of directive comments).
	for l := at.Line; l == at.Line || len(lines[l]) > 0; l-- {
		for _, d := range lines[l] {
			if d.Name != name {
				continue
			}
			if p.Usage != nil {
				p.Usage.mark(d.Pos)
			}
			return d, true
		}
	}
	return Directive{}, false
}

// Allowed reports whether pos is excused by a justified //ppml:<name>
// directive. When the directive is present but carries no justification,
// Allowed reports a diagnostic of its own (anchored at the violation, which
// the directive fails to excuse) and returns false: an unexplained exemption
// is itself a violation.
func (p *Pass) Allowed(pos token.Pos, name string) bool {
	d, ok := p.Directive(pos, name)
	if !ok {
		return false
	}
	if d.Justification == "" {
		p.Reportf(pos, "%s%s directive requires a justification string", DirectivePrefix, name)
		return false
	}
	return true
}

// ParseDirective parses one //ppml:<name> <justification> comment.
func ParseDirective(text string) (Directive, bool) {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return Directive{}, false
	}
	rest := text[len(DirectivePrefix):]
	name, justification, _ := strings.Cut(rest, " ")
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Justification: strings.TrimSpace(justification)}, true
}

// DirectiveUsage records which directives were consulted (matched by name at
// a would-be violation) across a whole suite run. RunSuite shares one
// recorder between all analyzers of a package and hands it to the
// unuseddirective check, which flags every directive that excused nothing.
type DirectiveUsage struct {
	used map[token.Pos]bool
}

func newDirectiveUsage() *DirectiveUsage {
	return &DirectiveUsage{used: make(map[token.Pos]bool)}
}

func (u *DirectiveUsage) mark(pos token.Pos) { u.used[pos] = true }

// Used reports whether the directive written at pos was consulted.
func (u *DirectiveUsage) Used(pos token.Pos) bool { return u != nil && u.used[pos] }
