package server

import "fmt"

// Role selects which stages of the deployment pipeline a node runs. The
// three roles compose the same building blocks — the sharded aggregation
// pipeline, the durable store, the materialized-view engine, and the
// canonical state exchange — into the topologies a real LDP fleet needs:
//
//   - RoleSingle wires everything into one process: ingest, durability,
//     and serving, exactly the pre-cluster behavior. The default.
//   - RoleEdge runs ingest and durability only: it accepts /report and
//     /report/batch, WAL-logs them, and exports its canonical aggregator
//     state on GET /state for a coordinator to pull. It serves no
//     estimates (no view engine is built, so an edge never pays
//     reconstruction cost).
//   - RoleCoordinator runs the read side over fleet-wide state: it
//     ingests nothing itself, periodically pulls GET /state from its
//     configured peers (merging the canonical blobs through the same
//     Merge path a single node uses), and serves /marginal, /query, and
//     the materialized view over the merged result.
type Role int

const (
	// RoleSingle is the monolithic deployment: ingest + durability +
	// serving in one process.
	RoleSingle Role = iota
	// RoleEdge ingests and WAL-logs reports and exports state; it serves
	// no estimates.
	RoleEdge
	// RoleCoordinator pulls peer states and serves estimates over the
	// merged fleet; it ingests no reports.
	RoleCoordinator
)

// String returns the role's flag spelling.
func (r Role) String() string {
	switch r {
	case RoleSingle:
		return "single"
	case RoleEdge:
		return "edge"
	case RoleCoordinator:
		return "coordinator"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// ParseRole maps a flag spelling to its role.
func ParseRole(s string) (Role, error) {
	switch s {
	case "single", "":
		return RoleSingle, nil
	case "edge":
		return RoleEdge, nil
	case "coordinator":
		return RoleCoordinator, nil
	default:
		return 0, fmt.Errorf("server: unknown role %q (single, edge, coordinator)", s)
	}
}

// serves reports whether the role runs the materialized-view read side.
func (r Role) serves() bool { return r != RoleEdge }
