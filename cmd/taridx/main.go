// Command taridx manages indexed tar archives (the paper's pytaridx):
// create archives from files, list and extract entries with random access,
// and verify/rebuild indexes after damage. Archives remain standard tar
// files readable by any decoder.
//
// Usage:
//
//	taridx put     <archive.tar> <key> [file]   # file or stdin
//	taridx get     <archive.tar> <key>          # to stdout
//	taridx list    <archive.tar>
//	taridx delete  <archive.tar> <key>
//	taridx stats   <archive.tar>
//	taridx rebuild <archive.tar>                # reindex from the tar
package main

import (
	"fmt"
	"io"
	"os"

	"mummi/internal/errutil"
	"mummi/internal/taridx"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "taridx:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	if len(args) < 2 {
		return usage()
	}
	cmd, path := args[0], args[1]
	var data []byte
	switch cmd {
	case "put", "get", "delete":
		if len(args) < 3 {
			return usage()
		}
		if cmd != "put" {
			break
		}
		if len(args) >= 4 {
			data, err = os.ReadFile(args[3])
		} else {
			data, err = io.ReadAll(os.Stdin)
		}
		if err != nil {
			return err
		}
	case "rebuild":
		// Open rebuilds automatically when the index is missing; force it
		// by removing the sidecar first.
		if err := os.Remove(path + taridx.IndexSuffix); err != nil && !os.IsNotExist(err) {
			return err
		}
	case "list", "stats":
	default:
		return usage()
	}

	a, err := taridx.Open(path)
	if err != nil {
		return err
	}
	// The archive is append-mode: a failed close can mean lost index
	// appends, so it fails the command.
	defer errutil.CaptureClose(&err, a.Close)
	switch cmd {
	case "put":
		return a.Put(args[2], data)
	case "get":
		b, err := a.Get(args[2])
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case "list":
		for _, k := range a.Keys() {
			fmt.Println(k)
		}
	case "delete":
		return a.Delete(args[2])
	case "stats":
		s := a.Stats()
		fmt.Printf("keys=%d appends=%d reads=%d bytes_read=%d archive_bytes=%d\n",
			s.Keys, s.Appends, s.Reads, s.BytesRead, s.ArchiveLen)
	case "rebuild":
		fmt.Printf("rebuilt index: %d keys\n", a.Len())
	}
	return nil
}

func usage() error {
	return fmt.Errorf("usage: taridx put|get|list|delete|stats|rebuild <archive.tar> [key] [file]")
}
