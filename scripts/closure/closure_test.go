// Package closure holds the trusted decision core to its import rule.
// Package verify decides for the control tier (paper §1, §5.2: a small
// trusted tier decides, a large untrusted one computes), so it may import
// only digest, analyze, cluster and the standard library, and no package
// of the data plane, the controller or the harnesses may enter its import
// closure. faultsim drives verify's fault analyzer and suspicion table on
// their own and keeps the data plane out of its closure as well.
//
//	go test ./scripts/closure
package closure

import (
	"encoding/json"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

const module = "clusterbft/"

var rules = []struct {
	pkg string
	// imports lists the module packages pkg may import itself; nil
	// leaves them free.
	imports []string
	// forbidden are the module packages its closure must not reach.
	forbidden []string
}{
	{
		pkg:     "internal/verify",
		imports: []string{"internal/analyze", "internal/cluster", "internal/digest"},
		forbidden: []string{"internal/core", "internal/mapred", "internal/dfs", "internal/pool", "internal/vtime",
			"internal/bft", "internal/chaos", "internal/experiments", "internal/faultsim", "internal/cli"},
	},
	{
		pkg:       "internal/faultsim",
		forbidden: []string{"internal/core", "internal/mapred", "internal/dfs", "internal/bft", "internal/pool", "internal/vtime"},
	},
}

func TestImportClosure(t *testing.T) {
	for _, r := range rules {
		cmd := exec.Command("go", "list", "-json", module+r.pkg)
		cmd.Dir = "../.."
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %s: %v", r.pkg, err)
		}
		var p struct{ Imports, Deps []string }
		if err := json.Unmarshal(out, &p); err != nil {
			t.Fatalf("go list %s: %v", r.pkg, err)
		}
		if r.imports != nil {
			for _, imp := range p.Imports {
				if rest, ok := strings.CutPrefix(imp, module); ok && !slices.Contains(r.imports, rest) {
					t.Errorf("%s imports %s; it may import only %v of this module", r.pkg, rest, r.imports)
				}
			}
		}
		for _, dep := range p.Deps {
			if dep = strings.TrimPrefix(dep, module); slices.Contains(r.forbidden, dep) {
				t.Errorf("%s reaches %s; its import closure must not reach any of %v", r.pkg, dep, r.forbidden)
			}
		}
	}
}
