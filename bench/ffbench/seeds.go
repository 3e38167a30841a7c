package main

// screenedSeeds is each workload's pool of campaign seeds. A run takes three
// consecutive entries, starting where its -seed points, so the same -seed
// always gives the same campaigns.
//
// The pool exists because trial cost is heavy-tailed (see heavyTrials): one
// trial in a thousand can cost as much as a whole campaign, which seeds
// contain one is a property of the seed, and a benchmark whose inputs include
// them measures mostly the simulator's work budget. Every entry's campaign
// was found free of heavy trials by `ffbench -workload <name> -screen 48`;
// re-run it after a change that alters trial outcomes or workload sizes.
var screenedSeeds = map[string][]int64{
	"lu32-serial":          {1, 3, 5, 6, 7, 9, 11, 12, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25, 27, 28, 30, 33, 34, 35, 37, 38, 39, 40, 41, 45, 46, 47, 48, 49, 50, 51, 52, 54, 55, 56, 57, 60, 61, 62, 63, 65, 66, 67},
	"lu32-ffd-2shard":      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48},
	"mg32-workers":         {2, 3, 4, 5, 6, 10, 13, 14, 15, 19, 20, 24, 26, 27, 30, 31, 32, 33, 34, 35, 36, 37, 39, 40, 41, 44, 48, 49, 51, 52, 54, 55, 56, 61, 67, 70, 71, 73, 74, 77, 78, 82, 83, 86, 87, 88, 89, 91},
	"minimd32-ml-adaptive": {1, 6, 7, 16, 18, 20, 22, 24, 37, 39, 41, 43, 49, 50, 51, 52, 53, 55, 57, 61, 62, 66, 67, 69, 72, 73, 78, 79, 80, 88, 94, 96, 102, 120, 121, 126, 133, 134, 135, 138, 139, 142, 143, 144, 149, 153, 155, 156},
}
