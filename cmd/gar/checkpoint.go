// The checkpoint mode inspects and maintains a serving-state directory
// written by `gar serve -statedir` (see internal/checkpoint):
//
//	gar checkpoint list -statedir dir [-o json]
//	gar checkpoint verify -statedir dir [-o json]
//	gar checkpoint prune -statedir dir [-keep 3]
//
// list shows every checkpoint generation with its size, age and full
// validation verdict; verify is list with an exit code — 1 when any
// file fails validation; prune keeps the newest -keep generations and
// sweeps temp files abandoned by interrupted writes.
//
// Both layouts are understood: a single-tenant directory holding
// checkpoint files directly (`gar serve -spec` and `-demo`), and the
// multi-tenant tree of `-specdir` ({statedir}/{tenant}/...), where
// every verb walks each tenant subdirectory and reports per tenant.
//
// Exit codes: 0 clean, 1 invalid checkpoints found (verify), 2 usage or
// I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/checkpoint"
)

// checkpointReport is one file's row in list/verify output.
type checkpointReport struct {
	// Tenant is the state-tree subdirectory the file belongs to; empty
	// in a single-tenant directory.
	Tenant      string `json:"tenant,omitempty"`
	Generation  uint64 `json:"generation"`
	Path        string `json:"path"`
	Size        int64  `json:"size"`
	ModTime     string `json:"mod_time"`
	Valid       bool   `json:"valid"`
	Error       string `json:"error,omitempty"`
	Database    string `json:"database,omitempty"`
	CreatedUnix int64  `json:"created_unix,omitempty"`
	Sections    int    `json:"sections,omitempty"`
}

// tenantStore pairs a store with the tenant name it serves; name is
// empty for the single-tenant layout.
type tenantStore struct {
	name string
	st   *checkpoint.Store
}

// openStateTree resolves a -statedir into the stores to operate on: the
// directory itself when it holds checkpoint files directly (or holds
// nothing at all), plus one store per tenant subdirectory of a
// multi-tenant tree. A mixed directory reports both.
func openStateTree(stateDir string) ([]tenantStore, error) {
	root, err := checkpoint.Open(stateDir)
	if err != nil {
		return nil, err
	}
	rootEntries, err := root.List()
	if err != nil {
		return nil, err
	}
	tenants, err := checkpoint.ListTenants(stateDir)
	if err != nil {
		return nil, err
	}
	var stores []tenantStore
	if len(rootEntries) > 0 || len(tenants) == 0 {
		stores = append(stores, tenantStore{st: root})
	}
	for _, name := range tenants {
		st, err := checkpoint.OpenTenant(stateDir, name)
		if err != nil {
			return nil, err
		}
		stores = append(stores, tenantStore{name: name, st: st})
	}
	return stores, nil
}

// runCheckpoint is the `gar checkpoint` entry point, separated from
// os.Exit for testability.
func runCheckpoint(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "gar checkpoint: want a verb: list, verify or prune")
		return 2
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("gar checkpoint "+verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
	stateDir := fs.String("statedir", "", "serving-state directory to operate on")
	output := fs.String("o", "text", "output format: text or json")
	keep := fs.Int("keep", 3, "generations to retain (prune)")
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	if *stateDir == "" {
		fmt.Fprintln(stderr, "gar checkpoint: provide -statedir")
		return 2
	}
	stores, err := openStateTree(*stateDir)
	if err != nil {
		fmt.Fprintf(stderr, "gar checkpoint: %v\n", err)
		return 2
	}

	switch verb {
	case "list", "verify":
		var reports []checkpointReport
		invalid := 0
		for _, ts := range stores {
			rs, bad, err := inspectStore(ts)
			if err != nil {
				fmt.Fprintf(stderr, "gar checkpoint: %v\n", err)
				return 2
			}
			reports = append(reports, rs...)
			invalid += bad
		}
		if *output == "json" {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reports); err != nil {
				fmt.Fprintf(stderr, "gar checkpoint: %v\n", err)
				return 2
			}
		} else {
			printCheckpointReports(stdout, reports)
		}
		if verb == "verify" && invalid > 0 {
			fmt.Fprintf(stderr, "gar checkpoint: %d of %d checkpoints failed validation\n", invalid, len(reports))
			return 1
		}
		return 0
	case "prune":
		for _, ts := range stores {
			prefix := ""
			if ts.name != "" {
				prefix = "tenant " + ts.name + ": "
			}
			removed, err := ts.st.Prune(*keep)
			if err != nil {
				fmt.Fprintf(stderr, "gar checkpoint: %s%v\n", prefix, err)
				return 2
			}
			tmps, terr := ts.st.CleanTemp()
			if terr != nil {
				fmt.Fprintf(stderr, "gar checkpoint: %s%v\n", prefix, terr)
				return 2
			}
			for _, p := range removed {
				fmt.Fprintf(stdout, "%spruned %s\n", prefix, p)
			}
			for _, p := range tmps {
				fmt.Fprintf(stdout, "%sremoved temp %s\n", prefix, p)
			}
			fmt.Fprintf(stdout, "%skept newest %d generation(s); removed %d checkpoint(s), %d temp file(s)\n",
				prefix, *keep, len(removed), len(tmps))
		}
		return 0
	default:
		fmt.Fprintf(stderr, "gar checkpoint: unknown verb %q (want list, verify or prune)\n", verb)
		return 2
	}
}

// inspectStore fully validates every checkpoint in one tenant's store,
// newest first, and counts the invalid ones.
func inspectStore(ts tenantStore) ([]checkpointReport, int, error) {
	entries, err := ts.st.List()
	if err != nil {
		return nil, 0, err
	}
	reports := make([]checkpointReport, 0, len(entries))
	invalid := 0
	for _, e := range entries {
		r := checkpointReport{
			Tenant:     ts.name,
			Generation: e.Generation,
			Path:       e.Path,
			Size:       e.Size,
			ModTime:    e.ModTime.UTC().Format(time.RFC3339),
		}
		ck, err := checkpoint.ReadFile(e.Path)
		switch {
		case err != nil:
			r.Error = err.Error()
			invalid++
		case ck.Manifest.Generation != e.Generation:
			r.Error = fmt.Sprintf("file carries generation %d", ck.Manifest.Generation)
			invalid++
		default:
			r.Valid = true
			r.Database = ck.Manifest.Database
			r.CreatedUnix = ck.Manifest.CreatedUnix
			r.Sections = len(ck.Manifest.Sections)
		}
		reports = append(reports, r)
	}
	return reports, invalid, nil
}

func printCheckpointReports(w io.Writer, reports []checkpointReport) {
	if len(reports) == 0 {
		fmt.Fprintln(w, "no checkpoints")
		return
	}
	tenant := ""
	for _, r := range reports {
		if r.Tenant != tenant {
			tenant = r.Tenant
			fmt.Fprintf(w, "tenant %s:\n", tenant)
		}
		indent := ""
		if r.Tenant != "" {
			indent = "  "
		}
		if r.Valid {
			fmt.Fprintf(w, "%sgen %-6d %8d bytes  %s  ok       db=%s sections=%d\n",
				indent, r.Generation, r.Size, r.ModTime, r.Database, r.Sections)
		} else {
			fmt.Fprintf(w, "%sgen %-6d %8d bytes  %s  INVALID  %s\n",
				indent, r.Generation, r.Size, r.ModTime, r.Error)
		}
	}
}
