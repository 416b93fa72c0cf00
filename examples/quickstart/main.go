// Quickstart: load the paper's Figure 1 mesh, state the two
// administrators' goals (Figs. 2 and 3), watch them conflict, and print
// the envelope E_{K8s→Istio} (Fig. 5) that tells the Istio administrator
// exactly what the K8s goals require of them.
//
// Run from the repository root:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"muppet"
)

func main() {
	// The system structure and current configurations come from the same
	// YAML shapes administrators deploy in production.
	bundle, err := muppet.LoadFiles(
		"testdata/fig1/mesh.yaml",
		"testdata/fig1/k8s_current.yaml",
		"testdata/fig1/istio_current.yaml",
	)
	if err != nil {
		log.Fatal(err)
	}

	// Fix the logical vocabulary: the mesh, both parties' policy shells,
	// and the ports the goal tables mention.
	sys, err := muppet.NewSystem(bundle.Mesh, bundle.K8s.Policies, bundle.Istio.Policies,
		[]int{23, 24, 25, 26, 10000, 12000, 14000, 16000})
	if err != nil {
		log.Fatal(err)
	}

	// Goals, straight from the paper's CSV tables.
	k8sGoals, err := muppet.LoadK8sGoals("testdata/fig1/k8s_goals.csv")
	if err != nil {
		log.Fatal(err)
	}
	istioGoals, err := muppet.LoadIstioGoals("testdata/fig1/istio_goals.csv")
	if err != nil {
		log.Fatal(err)
	}

	// The K8s administrator is about to push a global port-23 ban; their
	// current configuration (permissive) is what tenants see today.
	k8sParty, _, err := muppet.NewK8sParty(sys, bundle.K8s, muppet.Offer{}, k8sGoals)
	if err != nil {
		log.Fatal(err)
	}
	// The Istio administrator runs a working mesh and wants the Fig. 3
	// flows; everything on their side is open to compromise.
	istioParty, _, err := muppet.NewIstioParty(sys, bundle.Istio, muppet.AllSoft(), istioGoals)
	if err != nil {
		log.Fatal(err)
	}

	// The conflict (Sec. 2): the union of the two goal sets is
	// unsatisfiable — no pair of configurations can meet both.
	ctx := context.Background()
	res := muppet.ReconcileCtx(ctx, sys, []*muppet.Party{k8sParty, istioParty}, muppet.Budget{})
	if res.OK {
		log.Fatal("unexpected: the paper's conflict should be unsatisfiable")
	}
	fmt.Println("The two administrators' goals conflict. Blame:")
	fmt.Println(res.Feedback)
	fmt.Println()

	// The envelope E_{K8s→Istio} (Fig. 5): what the Istio administrator
	// must satisfy for the K8s goals to hold, in the Istio vocabulary.
	env, err := muppet.ComputeEnvelopeCtx(ctx, sys, istioParty, []*muppet.Party{k8sParty})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Envelope from K8s to Istio (Fig. 5):")
	fmt.Print(env)
	fmt.Println()
	fmt.Println("Configuration leakage (Sec. 7):", env.LeakedAtoms())
}
