// Command kvstore runs mummi's Redis-like in-memory store as a standalone
// server, or acts as a simple client against one.
//
// Usage:
//
//	kvstore serve -addr 127.0.0.1:6399 [-replica host:port]
//	kvstore set   -addr 127.0.0.1:6399 key value
//	kvstore get   -addr 127.0.0.1:6399 key
//	kvstore keys  -addr 127.0.0.1:6399 'prefix:*'
//	kvstore del   -addr 127.0.0.1:6399 key...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"mummi/internal/kvstore"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: kvstore serve|set|get|keys|del [-addr host:port] args..."))
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:6399", "server address")
	replica := fs.String("replica", "", "serve: forward every mutation to this replica server and await its ack (promotes this server to shard primary)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}
	args := fs.Args()

	if cmd == "serve" {
		srv := kvstore.NewServer(nil)
		if *replica != "" {
			srv.SetReplica(*replica)
		}
		bound, err := srv.Listen(*addr)
		if err != nil {
			fatal(err)
		}
		if *replica != "" {
			fmt.Println("kvstore listening on", bound, "replicating to", *replica)
		} else {
			fmt.Println("kvstore listening on", bound)
		}
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "kvstore: shutdown:", err)
		}
		return
	}

	c, err := kvstore.DialCluster([]string{*addr})
	if err != nil {
		fatal(err)
	}
	defer c.Close() //lint:allow errdiscipline -- process exits immediately after; nothing can act on a client close failure
	switch cmd {
	case "set":
		if len(args) != 2 {
			fatal(fmt.Errorf("set needs key and value"))
		}
		if err := c.Set(args[0], []byte(args[1])); err != nil {
			fatal(err)
		}
	case "get":
		if len(args) != 1 {
			fatal(fmt.Errorf("get needs a key"))
		}
		v, err := c.Get(args[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(v))
	case "keys":
		if len(args) != 1 {
			fatal(fmt.Errorf("keys needs a pattern"))
		}
		ks, err := c.Keys(args[0])
		if err != nil {
			fatal(err)
		}
		for _, k := range ks {
			fmt.Println(k)
		}
	case "del":
		if len(args) == 0 {
			fatal(fmt.Errorf("del needs keys"))
		}
		n, err := c.Del(args...)
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvstore:", err)
	os.Exit(1)
}
