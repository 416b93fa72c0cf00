package server

import (
	"context"
	"fmt"
	"strings"

	"muppet"
	"muppet/internal/feder"
)

// FedOptions aliases the federation robustness knobs so front ends (the
// muppet CLI's -federated mode, the daemon's execFn) can tune retries,
// breakers, deadlines, and transcripts without importing feder.
type FedOptions = feder.Options

// ParsePeers reads the -peers / Request.Peers syntax: comma-separated
// name=url pairs, one per negotiating party.
//
//	k8s=http://127.0.0.1:7001,istio=http://127.0.0.1:7002
func ParsePeers(s string) ([]feder.PeerRef, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%w: empty peer list", ErrUsage)
	}
	var out []feder.PeerRef
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("%w: bad peer %q (want name=url)", ErrUsage, part)
		}
		out = append(out, feder.PeerRef{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty peer list", ErrUsage)
	}
	return out, nil
}

// coordinate runs a negotiate request as the federated coordinator over
// the peers it names, returning the outcome and the K8s and Istio
// replicas it negotiated for.
func coordinate(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget, fopts *FedOptions) (*muppet.NegotiationOutcome, *muppet.Party, *muppet.Party, error) {
	peers, err := ParsePeers(req.Peers)
	if err != nil {
		return nil, nil, nil, err
	}
	replicas, err := st.FedReplicas()
	if err != nil {
		return nil, nil, nil, err
	}
	var opts FedOptions
	if fopts != nil {
		opts = *fopts
	}
	if req.Rounds > 0 {
		opts.Rounds = req.Rounds
	}
	coord, err := feder.NewCoordinator(st.Sys, replicas, peers, opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrUsage, err)
	}
	if cache != nil {
		coord.UseCache(cache)
	}
	return coord.Run(ctx, b), replicas[0].P, replicas[1].P, nil
}
