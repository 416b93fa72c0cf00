package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/scenario"
	"muppet/internal/server"
)

// bundle is one tenant revision's inputs as values: the mesh, both
// parties' current configurations, both goal tables, the offer modes and
// the extra inventory ports. The benchmark generates bundles in memory
// and writes them to files before any timing, so muppet only ever sees
// the files.
type bundle struct {
	Mesh       *mesh.Mesh
	K8s        *mesh.K8sConfig
	Istio      *mesh.IstioConfig
	K8sGoals   []goals.K8sGoal
	IstioGoals []goals.IstioGoal
	K8sOffer   string
	IstioOffer string
	Ports      []int
}

// rngFor derives an independent deterministic stream for one purpose of
// one run, so adding a draw to one generator never shifts another's.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 ^ h))
}

// scenarioParams sizes a generated scenario the way the repository's
// scaling sweep does: two ports per service, one flow per service, and
// two banned ports from services=12 up (one below).
func scenarioParams(services int, seed int64) scenario.Params {
	bans := 1
	if services >= 12 {
		bans = 2
	}
	return scenario.Params{
		Services: services, PortsPerService: 2, Flows: services,
		BannedPorts: bans, Seed: seed,
	}
}

// fromScenario builds a bundle from a generated scenario: relaxed goals
// with soft offers (reconcilable by construction), or strict goals with
// fixed offers (irreconcilable by construction: every ban hits a flow the
// strict table pins to the banned port).
func fromScenario(sc *scenario.Scenario, strict bool) *bundle {
	b := &bundle{
		Mesh: sc.Mesh, K8s: sc.K8sCurrent, Istio: sc.IstioCurrent,
		K8sGoals: sc.K8sGoals, IstioGoals: sc.IstioRelaxed,
		K8sOffer: "soft", IstioOffer: "soft",
		Ports: sc.ExtraPorts,
	}
	if strict {
		b.IstioGoals = sc.IstioStrict
		b.K8sOffer, b.IstioOffer = "fixed", "fixed"
	}
	// Bans are a map walk in the generator; sort them so the written
	// goal table depends on the seed alone.
	b.K8sGoals = append([]goals.K8sGoal(nil), b.K8sGoals...)
	sort.Slice(b.K8sGoals, func(i, j int) bool { return b.K8sGoals[i].Port < b.K8sGoals[j].Port })
	return b
}

// files is where one written bundle lives.
type files struct {
	Dir      string
	Config   server.Config // the CLI-flag view: what `muppet <op> -files …` reads
	Manifest string        // tenant.yaml naming the same inputs
}

// write materialises the bundle under dir: mesh.yaml, k8s.yaml,
// istio.yaml, the two goal CSVs and a tenant.yaml manifest.
func (b *bundle) write(dir string) (files, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return files{}, err
	}
	out := map[string][]byte{
		"mesh.yaml":       meshYAML(b.Mesh),
		"k8s.yaml":        k8sYAML(b.K8s),
		"istio.yaml":      istioYAML(b.Istio),
		"k8s_goals.csv":   k8sGoalsCSV(b.K8sGoals),
		"istio_goals.csv": istioGoalsCSV(b.IstioGoals),
		"tenant.yaml":     b.manifest(),
	}
	for name, data := range out {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return files{}, err
		}
	}
	join := func(names ...string) string {
		for i, n := range names {
			names[i] = filepath.Join(dir, n)
		}
		return strings.Join(names, ",")
	}
	return files{
		Dir: dir,
		Config: server.Config{
			Files:      join("mesh.yaml", "k8s.yaml", "istio.yaml"),
			K8sGoals:   filepath.Join(dir, "k8s_goals.csv"),
			IstioGoals: filepath.Join(dir, "istio_goals.csv"),
			K8sOffer:   b.K8sOffer,
			IstioOffer: b.IstioOffer,
			Ports:      intsCSV(b.Ports),
		},
		Manifest: filepath.Join(dir, "tenant.yaml"),
	}, nil
}

func (b *bundle) manifest() []byte {
	var w strings.Builder
	w.WriteString("files:\n  - mesh.yaml\n  - k8s.yaml\n  - istio.yaml\n")
	w.WriteString("k8s-goals: k8s_goals.csv\nistio-goals: istio_goals.csv\n")
	fmt.Fprintf(&w, "k8s-offer: %s\nistio-offer: %s\n", b.K8sOffer, b.IstioOffer)
	if len(b.Ports) > 0 {
		w.WriteString("ports:\n")
		writeIntList(&w, "  ", b.Ports)
	}
	return []byte(w.String())
}

func intsCSV(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func writeIntList(w *strings.Builder, indent string, xs []int) {
	for _, x := range xs {
		fmt.Fprintf(w, "%s- %d\n", indent, x)
	}
}

func writeStringList(w *strings.Builder, indent string, xs []string) {
	for _, x := range xs {
		fmt.Fprintf(w, "%s- %s\n", indent, x)
	}
}

// writeSelector renders a label selector under key: {} for match-all,
// matchLabels otherwise, keys sorted.
func writeSelector(w *strings.Builder, key string, sel map[string]string) {
	if len(sel) == 0 {
		fmt.Fprintf(w, "  %s: {}\n", key)
		return
	}
	fmt.Fprintf(w, "  %s:\n    matchLabels:\n", key)
	for _, k := range sortedKeys(sel) {
		fmt.Fprintf(w, "      %s: %s\n", k, sel[k])
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func meshYAML(m *mesh.Mesh) []byte {
	var w strings.Builder
	for i, s := range m.Services {
		if i > 0 {
			w.WriteString("---\n")
		}
		fmt.Fprintf(&w, "apiVersion: v1\nkind: Service\nmetadata:\n  name: %s\n", s.Name)
		if len(s.Labels) > 0 {
			w.WriteString("  labels:\n")
			for _, k := range sortedKeys(s.Labels) {
				fmt.Fprintf(&w, "    %s: %s\n", k, s.Labels[k])
			}
		}
		if len(s.Ports) > 0 {
			w.WriteString("spec:\n  ports:\n")
			writeIntList(&w, "    ", s.Ports)
		}
	}
	return []byte(w.String())
}

// writeRules renders one direction block (ingress/egress) of a policy,
// omitting empty lists and the block itself when all are empty.
func writeRules(w *strings.Builder, block string, ints map[string][]int, order []string, strs map[string][]string) {
	empty := true
	for _, k := range order {
		if len(ints[k]) > 0 || len(strs[k]) > 0 {
			empty = false
		}
	}
	if empty {
		return
	}
	fmt.Fprintf(w, "  %s:\n", block)
	for _, k := range order {
		switch {
		case len(ints[k]) > 0:
			fmt.Fprintf(w, "    %s:\n", k)
			writeIntList(w, "      ", ints[k])
		case len(strs[k]) > 0:
			fmt.Fprintf(w, "    %s:\n", k)
			writeStringList(w, "      ", strs[k])
		}
	}
}

func k8sYAML(c *mesh.K8sConfig) []byte {
	var w strings.Builder
	for i, p := range c.Policies {
		if i > 0 {
			w.WriteString("---\n")
		}
		fmt.Fprintf(&w, "apiVersion: networking.k8s.io/v1\nkind: NetworkPolicy\nmetadata:\n  name: %s\nspec:\n", p.Name)
		writeSelector(&w, "podSelector", p.Selector)
		writeRules(&w, "ingress", map[string][]int{"denyPorts": p.IngressDenyPorts, "allowPorts": p.IngressAllowPorts},
			[]string{"denyPorts", "allowPorts"}, nil)
		writeRules(&w, "egress", map[string][]int{"denyPorts": p.EgressDenyPorts, "allowPorts": p.EgressAllowPorts},
			[]string{"denyPorts", "allowPorts"}, nil)
	}
	return []byte(w.String())
}

func istioYAML(c *mesh.IstioConfig) []byte {
	var w strings.Builder
	for i, p := range c.Policies {
		if i > 0 {
			w.WriteString("---\n")
		}
		fmt.Fprintf(&w, "apiVersion: security.istio.io/v1beta1\nkind: AuthorizationPolicy\nmetadata:\n  name: %s\nspec:\n", p.Name)
		writeSelector(&w, "selector", p.Target)
		writeRules(&w, "egress", map[string][]int{"denyToPorts": p.DenyToPorts, "allowToPorts": p.AllowToPorts},
			[]string{"denyToPorts", "allowToPorts"}, nil)
		writeRules(&w, "ingress", nil, []string{"denyFromServices", "allowFromServices"},
			map[string][]string{"denyFromServices": p.DenyFromServices, "allowFromServices": p.AllowFromServices})
	}
	return []byte(w.String())
}

func k8sGoalsCSV(gs []goals.K8sGoal) []byte {
	var w strings.Builder
	w.WriteString("port,perm,selector\n")
	for _, g := range gs {
		w.WriteString(g.String())
		w.WriteByte('\n')
	}
	return []byte(w.String())
}

func istioGoalsCSV(gs []goals.IstioGoal) []byte {
	var w strings.Builder
	w.WriteString("srcService,dstService,srcPort,dstPort\n")
	for _, g := range gs {
		w.WriteString(g.String())
		w.WriteByte('\n')
	}
	return []byte(w.String())
}
