package server

import (
	"fmt"
	"net/http"
	"strings"
)

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

// roles is a set of roles, one bit per Role.
type roles uint8

const (
	ingesting roles = 1<<RoleSingle | 1<<RoleEdge        // accept reports: the ring, the store, the degrader
	serving   roles = 1<<RoleSingle | 1<<RoleCoordinator // run the view engine
	pulling   roles = 1 << RoleCoordinator               // pull peers: the fleet and the puller
	anyRole         = ingesting | serving
)

func (rs roles) has(r Role) bool { return rs&(1<<r) != 0 }

// String joins the roles' flag spellings with "or", in Role order.
func (rs roles) String() string {
	var names []string
	for r := RoleSingle; r <= RoleCoordinator; r++ {
		if rs.has(r) {
			names = append(names, r.String())
		}
	}
	return strings.Join(names, " or ")
}

// route is one endpoint of the deployment.
type route struct {
	path string
	// method is the one method the route answers; any other gets a JSON
	// 405 naming it in the Allow header. Empty for a handler that answers
	// its own methods.
	method string
	// roles serve the route; any other role answers 403, naming what
	// the route serves and the roles that do.
	roles  roles
	what   string
	handle func(*Server, http.ResponseWriter, *http.Request)
}

// routes is every endpoint, in the order /metrics lists their request
// series. Handler builds the mux from it, and newServerInstruments one
// set of request metrics per route. A handler runs only for its method
// and its roles, so it may assume what its roles guarantee: an engine
// on a serving node, an ingest pipeline on an ingesting one, a puller
// on a pulling one.
var routes = []route{
	// A binary frame (encoding.Marshal) -> 204.
	{"/report", http.MethodPost, ingesting, "report ingestion", (*Server).handleReport},
	// Length-prefixed frames (encoding.MarshalBatch) -> JSON count.
	{"/report/batch", http.MethodPost, ingesting, "report ingestion", (*Server).handleBatch},
	// ?beta=<decimal mask> -> JSON table.
	{"/marginal", http.MethodGet, serving, "marginal estimates", (*Server).handleMarginal},
	// A JSON conjunction batch -> JSON per-query answers.
	{"/query", http.MethodPost, serving, "conjunction queries", (*Server).handleQuery},
	// Build and publish the next epoch -> JSON view status.
	{"/refresh", http.MethodPost, serving, "view refreshes", (*Server).handleRefresh},
	// Serving epoch, staleness, build time -> JSON.
	{"/view/status", http.MethodGet, serving, "view status", (*Server).handleViewStatus},
	// Accuracy diagnostics (TV bound, drift) -> JSON.
	{"/view/diagnostics", http.MethodGet, serving, "view diagnostics", (*Server).handleViewDiagnostics},
	// The canonical aggregator state frame -> binary.
	{"/state", http.MethodGet, anyRole, "", (*Server).handleState},
	// Pull every peer now -> JSON cluster status.
	{"/pull", http.MethodPost, pulling, "peer pulls", (*Server).handlePull},
	// Deployment metadata and the cluster block -> JSON.
	{"/status", http.MethodGet, anyRole, "", (*Server).handleStatus},
	// Liveness probe -> JSON ok.
	{"/healthz", http.MethodGet, anyRole, "", (*Server).handleHealthz},
	// Readiness probe (503 until ready) -> JSON.
	{"/readyz", http.MethodGet, anyRole, "", (*Server).handleReadyz},
	// Prometheus text exposition; GET or HEAD.
	{"/metrics", "", anyRole, "", (*Server).serveMetrics},
	// Completed request and lifecycle traces -> JSON.
	{"/debug/traces", "", anyRole, "", (*Server).serveTraces},
}

// dispatch is rt's gate in front of its handler: the method (405), then
// the role (403). The ingest handlers go on with health (503) and
// admission (429).
func (s *Server) dispatch(rt route) http.Handler {
	var refusal string
	if !rt.roles.has(s.role) {
		refusal = fmt.Sprintf("role %s does not serve %s; use a %s node", s.role, rt.what, rt.roles)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rt.method != "" && r.Method != rt.method {
			// RFC 9110 §15.5.6: a 405 names the allowed method.
			w.Header().Set("Allow", rt.method)
			httpError(w, r, rt.method+" required", http.StatusMethodNotAllowed)
			return
		}
		if refusal != "" {
			httpError(w, r, refusal, http.StatusForbidden)
			return
		}
		rt.handle(s, w, r)
	})
}
