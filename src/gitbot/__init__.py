"""Bot detection for git repositories from commit message repetitiveness."""
