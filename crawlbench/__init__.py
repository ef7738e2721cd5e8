"""Crawl-and-curate benchmark for siteone_crawler_ray (see README.md)."""
