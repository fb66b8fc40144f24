package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rankedaccess/internal/snapshot"
)

func snapshotCmd(args []string) {
	fs := flag.NewFlagSet("ra snapshot", flag.ExitOnError)
	var (
		file     = fs.String("file", "", "snapshot file to inspect and verify")
		dir      = fs.String("dir", "", "snapshot directory to list")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON")
		sections = fs.Bool("sections", false, "also dump the per-section layout")
	)
	fs.Parse(args)
	switch {
	case *file != "":
		inspectSnapshot(*file, *asJSON, *sections)
	case *dir != "":
		listSnapshots(*dir, *asJSON)
	default:
		badUsage("one of -file or -dir is required")
	}
}

func listSnapshots(dir string, asJSON bool) {
	infos, err := snapshot.List(dir)
	check(err)
	if asJSON {
		emitJSON(infos)
		return
	}
	if len(infos) == 0 {
		fmt.Println("no snapshots")
	}
	for _, info := range infos {
		fmt.Printf("%s  %10d bytes  version %-6d  %s\n",
			info.Name, info.Bytes, info.EngineVersion,
			time.Unix(0, info.CreatedUnixNano).UTC().Format(time.RFC3339))
	}
}

// snapshotReport is the JSON shape of one inspected file.
type snapshotReport struct {
	File     string                 `json:"file"`
	Version  uint32                 `json:"version"`
	Meta     snapshot.Meta          `json:"meta"`
	Sections []snapshot.SectionInfo `json:"sections,omitempty"`
}

func inspectSnapshot(path string, asJSON, withSections bool) {
	m, err := snapshot.Open(path)
	check(err)
	defer m.Close()
	f := m.File()
	if asJSON {
		r := snapshotReport{File: path, Version: f.Version, Meta: f.Meta}
		if withSections {
			r.Sections = f.SectionInfos()
		}
		emitJSON(r)
		return
	}
	meta := f.Meta
	fmt.Printf("%s: ok (format v%d, %d sections, all checksums verified)\n",
		path, f.Version, f.Sections())
	if f.Version < snapshot.FormatVersion {
		fmt.Printf("  format v%d: layered-lex structures are not read; they rebuild from their specs on first use\n", f.Version)
	}
	fmt.Printf("  engine version %d, created %s\n", meta.EngineVersion,
		time.Unix(0, meta.CreatedUnixNano).UTC().Format(time.RFC3339))
	fmt.Printf("  instance: %d tuples in %d relations", meta.Tuples, len(meta.Relations))
	if meta.Dict != nil {
		fmt.Printf(", dictionary of %d names", meta.Dict.Count)
	}
	fmt.Println()
	for _, rm := range meta.Relations {
		fmt.Printf("    %-16s arity %d  %8d rows\n", rm.Name, rm.Arity, rm.Rows)
	}
	fmt.Printf("  structures: %d\n", len(meta.Structures))
	for _, sm := range meta.Structures {
		extra := fmt.Sprintf("%d rows", sm.Rows)
		if sm.Kind == snapshot.KindLayeredLex {
			extra = fmt.Sprintf("%d layers", len(sm.Layers))
		}
		fmt.Printf("    %-13s total %-9d %-12s %s\n", sm.Kind, sm.Total, extra, sm.Spec.Query)
	}
	fmt.Printf("  registrations: %d\n", len(meta.Registrations))
	for _, rm := range meta.Registrations {
		fmt.Printf("    %-16s %s\n", rm.Name, rm.Spec.Query)
	}
	if withSections {
		for i, si := range f.SectionInfos() {
			fmt.Printf("  section %3d  %-5s %10d bytes\n", i, si.Kind, si.Bytes)
		}
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
}
