package apriori

// BruteForceRules lets the external benchmarks hold GenRules to the reference
// TestGenRulesAgainstBruteForce uses.
var BruteForceRules = bruteForceRules
