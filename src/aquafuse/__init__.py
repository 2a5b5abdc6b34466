"""Decision-level fusion of PAN, MS and Landsat imagery for water mapping."""
