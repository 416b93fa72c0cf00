// Package scenario generates deterministic synthetic multi-party
// configuration scenarios for tests and benchmarks.
//
// The paper evaluates Muppet on "modest scenarios" like its Sec. 3
// walkthrough but releases no corpus; this generator reproduces the shape
// of those scenarios — a service mesh with per-team label groups, working
// Istio policies admitting a spanning set of flows, and a K8s security
// goal that conflicts with some of them — at controllable scale, which is
// what the Sec. 5 timing claim ("all queries … finish in under 1 second")
// is reproduced against.
package scenario

import (
	"fmt"
	"math/rand"

	"muppet/internal/encode"
	"muppet/internal/goals"
	"muppet/internal/mesh"
)

// Params controls scenario size and density.
type Params struct {
	// Services is the number of services in the mesh.
	Services int
	// PortsPerService is how many ports each service listens on.
	PortsPerService int
	// Flows is the number of reachability goal rows the Istio side wants.
	Flows int
	// BannedPorts is how many distinct listening ports the K8s side bans
	// (each ban conflicts with any flow using that port).
	BannedPorts int
	// IstioPolicies is the number of AuthorizationPolicy shells; services
	// are assigned round-robin.
	IstioPolicies int
	// Seed makes generation deterministic.
	Seed int64
}

// Scenario is a generated multi-party configuration problem.
type Scenario struct {
	Params Params
	Mesh   *mesh.Mesh
	// K8sCurrent is a permissive current K8s configuration (one catch-all
	// shell), as in the walkthrough before the ban is pushed.
	K8sCurrent *mesh.K8sConfig
	// IstioCurrent admits exactly the goal flows via from-service allows.
	IstioCurrent *mesh.IstioConfig
	// K8sGoals bans the chosen ports (Fig. 2 shape).
	K8sGoals []goals.K8sGoal
	// IstioStrict requires the generated flows on their concrete ports
	// (Fig. 3 shape) — conflicting with the bans.
	IstioStrict []goals.IstioGoal
	// IstioRelaxed replaces destination ports of conflicted flows with
	// existential variables (Fig. 4 shape) — resolvable.
	IstioRelaxed []goals.IstioGoal
	// ExtraPorts are spare ports beyond the listening set, giving the
	// synthesizer room to re-expose services.
	ExtraPorts []int
}

// Generate builds a scenario. It panics on nonsensical parameters (this is
// test/bench support code).
func Generate(p Params) *Scenario {
	if p.Services < 2 || p.PortsPerService < 1 || p.Flows < 1 {
		panic("scenario: need ≥2 services, ≥1 port each, ≥1 flow")
	}
	if p.IstioPolicies <= 0 {
		p.IstioPolicies = p.Services
	}
	rng := rand.New(rand.NewSource(p.Seed))
	sc := &Scenario{Params: p}

	// Services with disjoint port ranges and one label each.
	sc.Mesh = &mesh.Mesh{}
	nextPort := 1000
	for i := 0; i < p.Services; i++ {
		ports := make([]int, p.PortsPerService)
		for j := range ports {
			ports[j] = nextPort
			nextPort++
		}
		sc.Mesh.Services = append(sc.Mesh.Services, &mesh.Service{
			Name:   fmt.Sprintf("svc-%d", i),
			Labels: map[string]string{"app": fmt.Sprintf("app-%d", i)},
			Ports:  ports,
		})
	}
	// One spare (non-listening) port per service for re-exposure.
	for i := 0; i < p.Services; i++ {
		sc.ExtraPorts = append(sc.ExtraPorts, nextPort)
		nextPort++
	}

	// Flow goal rows: random src→dst on a listening port of dst.
	type flow struct {
		src, dst string
		port     int
	}
	var flows []flow
	for len(flows) < p.Flows {
		si := rng.Intn(p.Services)
		di := rng.Intn(p.Services)
		if si == di {
			continue
		}
		dst := sc.Mesh.Services[di]
		flows = append(flows, flow{
			src:  sc.Mesh.Services[si].Name,
			dst:  dst.Name,
			port: dst.Ports[rng.Intn(len(dst.Ports))],
		})
	}

	// Ban ports that goal flows actually use, so each ban conflicts. Rows
	// are emitted in first-use order: the goal order steers the search,
	// so it must depend on the seed alone, never on map iteration.
	banned := make(map[int]bool)
	for _, f := range flows {
		if len(banned) >= p.BannedPorts {
			break
		}
		if !banned[f.port] {
			banned[f.port] = true
			sc.K8sGoals = append(sc.K8sGoals, goals.K8sGoal{Port: f.port, Allow: false})
		}
	}

	// Goal tables.
	varID := 0
	for _, f := range flows {
		srcPort := goals.AnyPort()
		strict := goals.IstioGoal{Src: f.src, Dst: f.dst, SrcPort: srcPort, DstPort: goals.LitPort(f.port), Allow: true}
		sc.IstioStrict = append(sc.IstioStrict, strict)
		relaxed := strict
		if banned[f.port] {
			varID++
			relaxed.DstPort = goals.VarPort(fmt.Sprintf("v%d", varID))
		}
		sc.IstioRelaxed = append(sc.IstioRelaxed, relaxed)
	}

	// Current configurations.
	sc.K8sCurrent = &mesh.K8sConfig{Policies: []*mesh.NetworkPolicy{
		{Name: "cluster-default"},
	}}
	sc.IstioCurrent = &mesh.IstioConfig{}
	for i := 0; i < p.IstioPolicies; i++ {
		svc := sc.Mesh.Services[i%p.Services]
		pol := &mesh.AuthorizationPolicy{
			Name:   fmt.Sprintf("pol-%d", i),
			Target: map[string]string{"app": svc.Labels["app"]},
		}
		for _, f := range flows {
			if f.dst == svc.Name {
				pol.AllowFromServices = appendUnique(pol.AllowFromServices, f.src)
			}
		}
		sc.IstioCurrent.Policies = append(sc.IstioCurrent.Policies, pol)
	}
	return sc
}

// System builds the encode.System for the scenario.
func (sc *Scenario) System() (*encode.System, error) {
	extra := append([]int(nil), sc.ExtraPorts...)
	extra = append(extra, goals.Ports(sc.K8sGoals, sc.IstioStrict)...)
	return encode.NewSystem(sc.Mesh, sc.K8sCurrent.Policies, sc.IstioCurrent.Policies, extra)
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}
