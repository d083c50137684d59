package router

import (
	"fmt"
	"slices"
	"strings"
)

// ParseWorkers parses the -workers list shared by the CLI binaries: a
// comma-separated list of worker addresses, one replica set, in which
// every worker serves every shard ("a:9101,b:9101,c:9101"). A semicolon
// is refused: it separated shard groups in the earlier owned-stride
// layout, which no longer exists. An empty entry is refused, and so is
// an address listed twice: the router would count one worker as two
// replicas, send it each write twice and fail a read over to the same
// dead address.
func ParseWorkers(spec string) ([]string, error) {
	if strings.Contains(spec, ";") {
		return nil, fmt.Errorf("router: -workers %q contains a semicolon; use commas: every worker belongs to one replica set (\"a:9101,b:9101\")", spec)
	}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("router: empty -workers spec")
	}
	var addrs []string
	for i, addr := range strings.Split(spec, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("router: -workers entry %d is empty", i)
		}
		if slices.Contains(addrs, addr) {
			return nil, fmt.Errorf("router: -workers lists %s twice", addr)
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}
